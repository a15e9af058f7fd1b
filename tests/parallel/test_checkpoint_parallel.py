"""Parallel checkpoint/restart: kill the job mid-run, resume from the
last good generation, end bit-exact with the uninterrupted run — with
dynamic plane remapping active throughout."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunSpec, execute_parallel, run
from repro.ckpt import (
    CheckpointRejected,
    CheckpointStore,
    FaultPlan,
    corrupt_file,
)
from repro.core.policies import RemappingConfig
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig, MulticomponentLBM
from repro.parallel.decomposition import CartTopology
from repro.parallel.driver import (
    ParallelLBM,
    ParallelRunResult,
    assemble_global_f,
)
from repro.parallel.threads import run_spmd
from tests.ckpt.test_store import BROKEN_OWNERSHIP_MAPS


def config(nx=16, ny=10):
    return LBMConfig(
        geometry=ChannelGeometry(shape=(nx, ny), wall_axes=(1,)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        body_acceleration=(1e-6, 0.0),
    )


def skewed_load(rank, phase, points):
    """Rank-dependent speeds so the remapper actually moves planes."""
    return points * (1.0 + 0.5 * rank)


REMAP = dict(
    policy="filtered",
    remap_config=RemappingConfig(interval=4),
    load_time_fn=skewed_load,
)


def parallel_run(ranks, cfg, phases, **knobs):
    return run(RunSpec(config=cfg, phases=phases, ranks=ranks, **knobs))


class TestPeriodicParallelCheckpoints:
    def test_checkpoints_written_and_physics_exact(self, tmp_path):
        cfg = config()
        store = CheckpointStore(tmp_path / "ckpt", keep_last=0)
        seq = MulticomponentLBM(cfg)
        seq.run(12)

        result = parallel_run(
            3, cfg, 12, checkpoint_every=4, checkpoint_store=store, **REMAP
        )
        assert np.array_equal(result.f, seq.f)
        assert [i.step for i in store.generations()] == [4, 8, 12]

        # Every generation reassembles to the full domain and verifies.
        for info in store.generations():
            assert store.verify_generation(info.step) == []
            f = store.load_global_f(info.manifest)
            assert f.shape == seq.f.shape

    def test_shards_record_plane_ownership_after_remapping(
        self, tmp_path
    ):
        cfg = config()
        store = CheckpointStore(tmp_path / "ckpt", keep_last=0)
        parallel_run(
            3, cfg, 12, checkpoint_every=12, checkpoint_store=store,
            decomp="slab", **REMAP  # shard bookkeeping asserted per plane
        )
        manifest = store.latest_good()
        shards = manifest.shards_in_x_order()
        assert sum(s.plane_count for s in shards) == 16
        starts = [s.plane_start for s in shards]
        assert starts[0] == 0 and starts == sorted(starts)
        assert manifest.step == 12


def ownership(result):
    """Per rank: the final rectangle and the remap bookkeeping a resume
    must carry over from its checkpoint."""
    return [
        (r.plane_start, r.plane_count, r.col_start, r.col_count,
         r.plane_history, r.planes_sent)
        for r in sorted(result.rank_results, key=lambda r: r.rank)
    ]


class TestKillAndResume:
    def _kill_and_resume(self, tmp_path, cfg, ranks, **knobs):
        """The acceptance scenario: crash at phase 13 with checkpoints
        every 4 phases, resume from step 12, finish bit-exact with the
        sequential solver and with the ownership an uninterrupted run
        ends on (a restore that fell back to reassembly would restart
        ``plane_history`` and ``planes_sent``)."""
        seq = MulticomponentLBM(cfg)
        seq.run(20)
        knobs.update(REMAP, checkpoint_every=4)

        store = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(RuntimeError, match="injected fault"):
            parallel_run(
                ranks,
                cfg,
                20,
                checkpoint_store=store,
                faults=FaultPlan.kill_job(13),
                timeout=60.0,
                **knobs,
            )
        assert store.latest_good().step == 12

        result = parallel_run(
            ranks, cfg, 20, checkpoint_store=store, resume=True, **knobs
        )
        whole = parallel_run(
            ranks,
            cfg,
            20,
            checkpoint_store=CheckpointStore(tmp_path / "whole"),
            **knobs,
        )
        assert np.array_equal(result.f, seq.f)
        assert ownership(result) == ownership(whole)

    def test_job_killed_mid_run_resumes_bit_exact(self, tmp_path):
        self._kill_and_resume(tmp_path, config(), 3)

    def test_2x2_grid_killed_mid_run_resumes_bit_exact(self, tmp_path):
        self._kill_and_resume(
            tmp_path, config(nx=20, ny=14), 4, decomp=(2, 2)
        )

    def test_mid_phase_kill_never_corrupts_the_store(self, tmp_path):
        """Dying after collision but before the halo exchange — the state
        a checkpoint must never observe — leaves only good generations."""
        cfg = config()
        seq = MulticomponentLBM(cfg)
        seq.run(16)

        store = CheckpointStore(tmp_path / "ckpt", keep_last=0)
        with pytest.raises(RuntimeError, match="mid_phase"):
            parallel_run(
                3,
                cfg,
                16,
                checkpoint_every=4,
                checkpoint_store=store,
                faults=FaultPlan.kill_job(10, site="mid_phase"),
                timeout=60.0,
                **REMAP,
            )
        assert [i.step for i in store.generations()] == [4, 8]
        assert all(
            store.verify_generation(i.step) == []
            for i in store.generations()
        )

        result = parallel_run(
            3,
            cfg,
            16,
            checkpoint_every=4,
            checkpoint_store=store,
            resume=True,
            **REMAP,
        )
        assert np.array_equal(result.f, seq.f)

    def test_corrupted_latest_generation_falls_back_one(self, tmp_path):
        cfg = config()
        seq = MulticomponentLBM(cfg)
        seq.run(16)

        store = CheckpointStore(tmp_path / "ckpt", keep_last=0)
        with pytest.raises(RuntimeError):
            parallel_run(
                3,
                cfg,
                16,
                checkpoint_every=4,
                checkpoint_store=store,
                faults=FaultPlan.kill_job(13),
                timeout=60.0,
                **REMAP,
            )
        # Step 12 survived the crash but the disk then ate a shard.
        corrupt_file(
            store.generation_dir(12) / store.shard_filename(1)
        )
        assert store.latest_good().step == 8

        result = parallel_run(
            3,
            cfg,
            16,
            checkpoint_every=4,
            checkpoint_store=store,
            resume=True,
            **REMAP,
        )
        assert np.array_equal(result.f, seq.f)

    def test_resume_into_different_rank_count(self, tmp_path):
        """A 3-rank checkpoint restores into a 2-rank job (global
        reassembly + re-split) and still finishes bit-exact."""
        cfg = config()
        seq = MulticomponentLBM(cfg)
        seq.run(16)

        store = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(RuntimeError):
            parallel_run(
                3,
                cfg,
                16,
                checkpoint_every=4,
                checkpoint_store=store,
                faults=FaultPlan.kill_job(9),
                timeout=60.0,
                **REMAP,
            )
        assert store.latest_good().step == 8

        result = parallel_run(
            2, cfg, 16, checkpoint_store=store, resume=True, **REMAP
        )
        assert np.array_equal(result.f, seq.f)

    def test_resume_with_no_checkpoint_starts_from_scratch(
        self, tmp_path
    ):
        cfg = config()
        seq = MulticomponentLBM(cfg)
        seq.run(8)
        store = CheckpointStore(tmp_path / "empty")
        result = parallel_run(
            3, cfg, 8, checkpoint_store=store, resume=True, **REMAP
        )
        assert np.array_equal(result.f, seq.f)

    def test_resume_requires_a_store(self):
        with pytest.raises(ValueError, match="needs a checkpoint_store"):
            parallel_run(2, config(), 4, resume=True)


class TestCollectiveRejection:
    def test_unhealthy_rank_rejects_the_checkpoint_on_all_ranks(
        self, tmp_path
    ):
        """One rank holding NaNs must fail the *collective* health vote —
        every rank raises CheckpointRejected and nothing is committed
        (a one-sided abort would deadlock the shard allgather)."""
        cfg = config()
        store = CheckpointStore(tmp_path / "ckpt")

        def rank_main(comm):
            driver = ParallelLBM(
                comm,
                cfg,
                topo=CartTopology([6, 5, 5], [10]),
                checkpoint_every=0,
                checkpoint_store=store,
            )
            driver.step_phase()
            if comm.rank == 1:
                driver.f[0, 0, 2, 2] = np.nan
            try:
                driver._write_checkpoint()
            except CheckpointRejected as exc:
                return f"rejected: {exc}"
            return "committed"

        outcomes = run_spmd(3, rank_main, timeout=60.0)
        assert all(o.startswith("rejected") for o in outcomes)
        assert all("rank 1" in o for o in outcomes)
        assert store.latest_good() is None


class TestOwnershipMap:
    def test_results_carry_a_tiling_ownership_map(self):
        # The walk below checks the 1-D x-axis tiling contract.
        # The raw records: api.run's result keeps only the global f.
        results = execute_parallel(
            RunSpec(config=config(), phases=12, ranks=3, decomp="slab", **REMAP)
        )
        ordered = sorted(results, key=lambda r: r.plane_start)
        expect = 0
        for r in ordered:
            assert r.plane_start == expect
            assert r.plane_count == r.f_interior.shape[2]
            expect += r.plane_count
        assert expect == 16

    @pytest.mark.parametrize("name", sorted(BROKEN_OWNERSHIP_MAPS))
    def test_assemble_rejects_a_broken_ownership_map(self, name):
        # The maps are drawn on a 12 x 18 channel; D2Q9, two components.
        results = [
            ParallelRunResult(
                rank=rank,
                plane_start=ps,
                f_interior=np.zeros((2, 9, pc, 18 if cc is None else cc)),
                plane_count=pc,
                plane_history=[pc],
                comp_times=[],
                planes_sent=0,
                planes_received=0,
                mass=0.0,
                phases=0,
                col_start=cs,
                col_count=cc,
            )
            for rank, (ps, pc, cs, cc) in enumerate(BROKEN_OWNERSHIP_MAPS[name])
        ]
        with pytest.raises(ValueError):
            assemble_global_f(results)
