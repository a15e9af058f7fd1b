"""CheckpointStore: roundtrips, corruption recovery, retention, faults."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt import (
    CKPT_FORMAT,
    CheckpointRejected,
    CheckpointStore,
    CorruptCheckpointError,
    FaultPlan,
    FaultSpec,
    IncompatibleCheckpointError,
    InjectedFault,
    Manifest,
    atomic_write_json,
    config_fingerprint,
    corrupt_file,
    truncate_file,
)
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig, MulticomponentLBM
from repro.obs.observer import MemorySink, MetricsRegistry, Observer
from repro.util.rng import make_rng, restore_generator


#: Ownership maps of the 12 × 18 test channel that do not tile it, as
#: ``(plane_start, plane_count, col_start, col_count)`` rectangles
#: (``col_count=None``: the full cross extent, a 1-D slab).
BROKEN_OWNERSHIP_MAPS = {
    "gap": [(0, 5, 0, None), (7, 5, 0, None)],
    "overlap": [(0, 7, 0, None), (5, 7, 0, None)],
    "band-short-of-cross-extent": [
        (0, 6, 0, 9), (0, 6, 9, 8), (6, 6, 0, 9), (6, 6, 9, 9),
    ],
    "slab-and-rectangle": [(0, 6, 0, 9), (6, 6, 0, None)],
}


@pytest.fixture
def store(tmp_path) -> CheckpointStore:
    return CheckpointStore(tmp_path / "ckpt")


def _checkpoint_at(solver, store, steps):
    """Run to each step in *steps*, checkpointing at each."""
    for target in steps:
        solver.run(target - solver.step_count)
        store.save_solver(solver)


class TestRoundtrip:
    def test_save_restore_is_bit_exact(self, two_component_config, store):
        solver = MulticomponentLBM(two_component_config)
        solver.run(8)
        store.save_solver(solver)
        solver.run(12)
        final = solver.f.copy()

        resumed = MulticomponentLBM(two_component_config)
        manifest = store.restore_solver(resumed)
        assert manifest is not None and manifest.step == 8
        assert resumed.step_count == 8
        resumed.run(12)
        assert resumed.step_count == 20
        assert np.array_equal(resumed.f, final), "resume must be bit-exact"

    def test_restore_from_empty_store_returns_none(
        self, small_solver, store
    ):
        assert store.restore_solver(small_solver) is None

    def test_rng_state_travels_with_the_manifest(
        self, small_solver, store
    ):
        rng = make_rng(123)
        rng.standard_normal(5)
        expected = rng.standard_normal(3)

        rng2 = make_rng(123)
        rng2.standard_normal(5)
        manifest = store.save_solver(small_solver, rng=rng2)
        assert manifest.rng_state is not None
        reloaded = store.latest_good()
        restored = restore_generator(reloaded.rng_state)
        assert np.array_equal(restored.standard_normal(3), expected)

    def test_fingerprint_mismatch_rejected(
        self, two_component_config, store
    ):
        solver = MulticomponentLBM(two_component_config)
        solver.run(2)
        store.save_solver(solver)

        other_config = LBMConfig(
            geometry=ChannelGeometry(shape=(12, 18), wall_axes=(1,)),
            components=(
                ComponentSpec("water", tau=0.8, rho_init=1.0),
                ComponentSpec("air", tau=1.0, rho_init=0.03),
            ),
            g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
            lattice=D2Q9,
        )
        other = MulticomponentLBM(other_config)
        with pytest.raises(IncompatibleCheckpointError, match="components"):
            store.restore_solver(other)

    def test_unhealthy_state_is_rejected_before_any_write(
        self, small_solver, store
    ):
        small_solver.f[0, 0, 3, 3] = np.nan
        with pytest.raises(CheckpointRejected, match="unhealthy"):
            store.save_solver(small_solver)
        assert store.generations() == []


class TestVerificationAndRecovery:
    def test_latest_good_skips_corrupted_shard(self, small_solver, store):
        _checkpoint_at(small_solver, store, [3, 6])
        shard = store.generation_dir(6) / store.shard_filename(0)
        corrupt_file(shard)
        assert store.verify_generation(6) != []
        good = store.latest_good()
        assert good is not None and good.step == 3

    def test_latest_good_skips_truncated_shard(self, small_solver, store):
        _checkpoint_at(small_solver, store, [3, 6])
        shard = store.generation_dir(6) / store.shard_filename(0)
        truncate_file(shard, shard.stat().st_size // 2)
        problems = store.verify_generation(6)
        assert any("truncated" in p for p in problems)
        assert store.latest_good().step == 3

    def test_uncommitted_generation_is_ignored(self, small_solver, store):
        _checkpoint_at(small_solver, store, [3])
        # A shard without a manifest: an aborted write.
        store.write_shard(
            7,
            0,
            {"f": small_solver.f},
            plane_start=0,
            plane_count=small_solver.config.geometry.shape[0],
        )
        infos = {i.step: i for i in store.generations()}
        assert not infos[7].committed
        assert "never committed" in infos[7].problem
        assert store.latest_good().step == 3

    def test_manifest_step_directory_mismatch_detected(
        self, small_solver, store
    ):
        _checkpoint_at(small_solver, store, [3])
        gen = store.generation_dir(3)
        gen.rename(store.generation_dir(5))
        problems = store.verify_generation(5)
        assert any("claims step 3" in p for p in problems)

    def test_discard_is_counted_and_traced(self, small_solver, tmp_path):
        sink = MemorySink()
        observer = Observer(sink=sink, registry=MetricsRegistry())
        store = CheckpointStore(tmp_path / "ckpt", observer=observer)
        solver = MulticomponentLBM(
            small_solver.config, observer=observer
        )
        _checkpoint_at(solver, store, [2, 4])
        corrupt_file(store.generation_dir(4) / store.shard_filename(0))
        assert store.latest_good().step == 2

        snap = observer.registry.snapshot()
        assert snap["ckpt.saves"]["value"] == 2.0
        assert snap["ckpt.corrupt_discarded"]["value"] == 1.0
        assert snap["ckpt.bytes_written"]["value"] > 0
        kinds = [e["type"] for e in sink.events]
        assert kinds.count("ckpt_commit") == 2
        assert kinds.count("ckpt_discard") == 1


class TestRetention:
    def test_keep_last_window(self, small_solver, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", keep_last=2)
        _checkpoint_at(small_solver, store, [2, 4, 6, 8])
        assert [i.step for i in store.generations()] == [6, 8]

    def test_keep_every_protects_multiples(self, small_solver, tmp_path):
        store = CheckpointStore(
            tmp_path / "ckpt", keep_last=1, keep_every=4
        )
        _checkpoint_at(small_solver, store, [2, 4, 6, 8])
        assert [i.step for i in store.generations()] == [4, 8]

    def test_keep_last_zero_disables_pruning(self, small_solver, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", keep_last=0)
        _checkpoint_at(small_solver, store, [2, 4, 6, 8])
        assert [i.step for i in store.generations()] == [2, 4, 6, 8]

    def test_prune_removes_stale_aborted_writes(
        self, small_solver, tmp_path
    ):
        store = CheckpointStore(tmp_path / "ckpt", keep_last=3)
        _checkpoint_at(small_solver, store, [2])
        nx = small_solver.config.geometry.shape[0]
        # Aborted write older than the newest commit: junk, removed.
        store.write_shard(
            1, 0, {"f": small_solver.f}, plane_start=0, plane_count=nx
        )
        # Aborted write newer than the newest commit: possibly still in
        # progress, left alone.
        store.write_shard(
            9, 0, {"f": small_solver.f}, plane_start=0, plane_count=nx
        )
        removed = store.prune()
        assert removed == [1]
        assert [i.step for i in store.generations()] == [2, 9]

    def test_rejects_negative_retention(self, tmp_path):
        with pytest.raises(ValueError, match=">= 0"):
            CheckpointStore(tmp_path, keep_last=-1)


class TestCrashMidWrite:
    def test_kill_after_shard_leaves_previous_generation_good(
        self, small_solver, tmp_path
    ):
        """A crash between shard write and manifest commit must leave the
        store exactly as restorable as before the attempt."""
        store = CheckpointStore(tmp_path / "ckpt")
        _checkpoint_at(small_solver, store, [4])
        good = store.latest_good()

        small_solver.run(4)
        store.faults = FaultPlan([FaultSpec(site="shard_written", at=8)])
        with pytest.raises(InjectedFault):
            store.save_solver(small_solver)
        store.faults = None
        assert store.latest_good() == good
        infos = {i.step: i for i in store.generations()}
        assert not infos[8].committed

    def test_kill_before_commit_leaves_previous_generation_good(
        self, small_solver, tmp_path
    ):
        store = CheckpointStore(tmp_path / "ckpt")
        _checkpoint_at(small_solver, store, [4])
        small_solver.run(4)
        store.faults = FaultPlan([FaultSpec(site="pre_commit", at=8)])
        with pytest.raises(InjectedFault):
            store.save_solver(small_solver)
        store.faults = None
        assert store.latest_good().step == 4
        # ... and a later successful save commits on top, pruning the
        # aborted generation along the way.
        small_solver.run(4)
        manifest = store.save_solver(small_solver)
        assert manifest.step == 12
        assert store.latest_good().step == 12

    def test_stalled_writer_still_commits(self, small_solver, tmp_path):
        store = CheckpointStore(
            tmp_path / "ckpt",
            faults=FaultPlan.stall_writer(0, 4, 0.01),
        )
        _checkpoint_at(small_solver, store, [4])
        assert store.latest_good().step == 4
        assert store.faults.fired == [("shard_written", 0, 4)]


class TestGlobalAssembly:
    def test_load_global_f_reorders_shards_by_plane(
        self, small_solver, store
    ):
        """Shards written in rank order restore in x order even when rank
        ownership is scrambled (post-remapping checkpoints)."""
        small_solver.run(3)
        f = small_solver.f
        nx = f.shape[2]
        split = nx // 2
        # Rank 0 owns the RIGHT half, rank 1 the left — reversed.
        s0 = store.write_shard(
            3,
            0,
            {"f": np.ascontiguousarray(f[:, :, split:])},
            plane_start=split,
            plane_count=nx - split,
        )
        s1 = store.write_shard(
            3,
            1,
            {"f": np.ascontiguousarray(f[:, :, :split])},
            plane_start=0,
            plane_count=split,
        )
        manifest = store.commit(
            3, config_fingerprint(small_solver.config), [s0, s1]
        )
        assert np.array_equal(store.load_global_f(manifest), f)


class TestBrokenOwnershipMap:
    @pytest.fixture(params=sorted(BROKEN_OWNERSHIP_MAPS))
    def shards(self, request, small_solver, store):
        """Real, checksummed shards laid out by one broken map."""
        f = small_solver.f
        return [
            store.write_shard(
                3,
                rank,
                {"f": np.ascontiguousarray(
                    f[:, :, ps:ps + pc, cs:None if cc is None else cs + cc]
                )},
                plane_start=ps,
                plane_count=pc,
                col_start=cs,
                col_count=cc,
            )
            for rank, (ps, pc, cs, cc) in enumerate(
                BROKEN_OWNERSHIP_MAPS[request.param]
            )
        ]

    def test_commit_refuses_it_and_writes_no_manifest(
        self, shards, small_solver, store
    ):
        with pytest.raises(CorruptCheckpointError):
            store.commit(3, config_fingerprint(small_solver.config), shards)
        assert not store.manifest_path(3).exists()

    def test_verify_generation_reports_it(self, shards, small_solver, store):
        manifest = Manifest(
            CKPT_FORMAT, 3, config_fingerprint(small_solver.config),
            tuple(shards),
        )
        with pytest.raises(CorruptCheckpointError) as refused:
            manifest.validate_coverage()
        # Committed behind the store's back: every shard verifies, so the
        # map is the one problem.
        atomic_write_json(store.manifest_path(3), manifest.to_json())
        assert store.verify_generation(3) == [str(refused.value)]
