"""2-D cartesian decomposition: differential equivalence with the 1-D
slab and the sequential solver.

The hard contract of the decomposition redesign: the same RunSpec
produces **bit-identical** global populations under the 1-D slab and the
2-D grid, on both transports, on both kernel backends, with the
overlapped and the blocking halo schedules, with 2-D remapping active,
and across checkpoint restores that change the decomposition.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunSpec, execute_parallel, run
from repro.ckpt import CheckpointStore
from repro.core.policies import RemappingConfig
from repro.lbm.components import ComponentSpec
from repro.lbm.forces import WallForceSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.solver import LBMConfig, MulticomponentLBM
from repro.obs import MemorySink, Observer
from repro.parallel.decomposition import CartTopology
from repro.parallel.driver import ParallelLBM, assemble_global_f
from repro.parallel.threads import run_spmd


def config(nx=20, ny=14, backend="reference", lattice=D2Q9, shape=None):
    geo = ChannelGeometry(shape=shape or (nx, ny), wall_axes=(1,))
    return LBMConfig(
        geometry=geo,
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=lattice,
        wall_force=WallForceSpec(amplitude=0.03),
        body_acceleration=(1e-6,) + (0.0,) * (geo.ndim - 1),
        backend=backend,
    )


def sequential_f(cfg, phases):
    solver = MulticomponentLBM(cfg)
    solver.run(phases)
    return solver.f


class TestDifferentialMatrix:
    @pytest.mark.parametrize("transport", ["threads", "processes"])
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_1d_and_2d_agree_bitwise(self, transport, backend):
        cfg = config(backend=backend)
        expected = sequential_f(cfg, 20)
        slab = run(
            RunSpec(
                config=cfg, phases=20, ranks=4, transport=transport,
                policy="no-remap",
            )
        )
        grid = run(
            RunSpec(
                config=cfg, phases=20, decomp=(2, 2), transport=transport,
                policy="no-remap",
            )
        )
        assert np.array_equal(slab.f, expected)
        assert np.array_equal(grid.f, expected)

    @pytest.mark.parametrize("halo_overlap", [True, False])
    def test_overlap_schedule_is_bit_identical(self, halo_overlap):
        cfg = config()
        expected = sequential_f(cfg, 20)
        result = run(
            RunSpec(
                config=cfg, phases=20, decomp=(2, 2),
                halo_overlap=halo_overlap, policy="no-remap",
            )
        )
        assert np.array_equal(result.f, expected)

    def test_3d_domain_under_a_2d_grid(self):
        cfg = config(shape=(10, 8, 6), lattice=D3Q19)
        expected = sequential_f(cfg, 8)
        result = run(
            RunSpec(config=cfg, phases=8, decomp=(2, 2), policy="no-remap")
        )
        assert np.array_equal(result.f, expected)


def slow_first_rank(rank, phase, points):
    t = points * 1e-6
    return t / 0.25 if rank == 0 else t


class TestRemapping2D:
    def test_active_row_and_column_remapping_stays_bitwise(self):
        cfg = config()
        expected = sequential_f(cfg, 40)
        topo = CartTopology.from_shape((20, 14), rows=2, cols=2)

        def rank_main(comm):
            return ParallelLBM(
                comm, cfg, topo=topo, policy="filtered",
                remap_config=RemappingConfig(interval=5, history=5),
                load_time_fn=slow_first_rank,
            ).run(40)

        results = run_spmd(4, rank_main)
        # The skewed load must actually move bands on both axes…
        assert any(r.planes_sent or r.planes_received for r in results)
        assert {r.col_count for r in results} != {results[0].col_count} or (
            len({(r.col_start, r.col_count) for r in results}) > 1
        )
        # …without perturbing a single bit of the physics.
        assert np.array_equal(assemble_global_f(results), expected)

    def test_migrate_events_count_bands_along_the_migrated_axis(self):
        """A ``migrate`` event reports how many bands moved along the
        axis it names: per rank and round the events add up to the
        change of that rank's extent on that axis, and per round and
        axis everything sent is received."""
        cfg = config()
        topo = CartTopology.from_shape((20, 14), rows=2, cols=2)
        observer = Observer(sink=MemorySink())

        def rank_main(comm):
            driver = ParallelLBM(
                comm, cfg, topo=topo, policy="filtered",
                remap_config=RemappingConfig(interval=5, history=5),
                load_time_fn=slow_first_rank, observer=observer,
            )
            growth = {}
            for _ in range(40):
                driver.step_phase()
                before = (driver.local_planes, driver.local_cols)
                driver.maybe_remap()
                growth[driver.phase] = {
                    "x": driver.local_planes - before[0],
                    "y": driver.local_cols - before[1],
                }
            return growth

        growth = run_spmd(4, rank_main)
        events = [e for e in observer.sink.events if e["type"] == "migrate"]
        assert {e["axis"] for e in events} == {"x", "y"}
        assert {e["action"] for e in events} == {"send", "recv"}
        for rank in range(4):
            for rnd, grown in growth[rank].items():
                for axis in "xy":
                    net = sum(
                        e["planes"] if e["action"] == "recv" else -e["planes"]
                        for e in events
                        if (e["rank"], e["round"], e["axis"]) == (rank, rnd, axis)
                    )
                    assert net == grown[axis], (rank, rnd, axis)
        for rnd in {e["round"] for e in events}:
            for axis in "xy":
                moved = {
                    action: sum(
                        e["planes"] for e in events
                        if (e["round"], e["axis"], e["action"])
                        == (rnd, axis, action)
                    )
                    for action in ("send", "recv")
                }
                assert moved["send"] == moved["recv"], (rnd, axis)
        assert observer.counter("migration.planes").value == sum(
            e["planes"] for e in events
        )


class TestCrossDecompositionRestore:
    def _write_checkpoint(self, cfg, tmp_path, topo):
        store_root = tmp_path / "ckpt"

        def writer(comm):
            return ParallelLBM(
                comm, cfg, topo=topo, policy="no-remap",
                checkpoint_every=10,
                checkpoint_store=CheckpointStore(store_root),
            ).run(15)

        run_spmd(topo.size, writer)
        return store_root

    def test_2d_checkpoint_restores_into_1d(self, tmp_path):
        cfg = config()
        expected = sequential_f(cfg, 30)
        topo = CartTopology.from_shape((20, 14), rows=2, cols=2)
        root = self._write_checkpoint(cfg, tmp_path, topo)
        manifest = CheckpointStore(root).latest_good()
        assert all(s.col_count is not None for s in manifest.shards)

        def restorer(comm):
            driver = ParallelLBM(
                comm, cfg, topo=CartTopology([7, 7, 6], [14]),
                policy="no-remap",
                checkpoint_store=CheckpointStore(root),
            )
            m = driver.restore_checkpoint()
            return driver.run(30 - m.step)

        results = run_spmd(3, restorer)
        assert np.array_equal(assemble_global_f(results), expected)

    def test_1d_checkpoint_restores_into_2d(self, tmp_path):
        cfg = config()
        expected = sequential_f(cfg, 30)
        root = self._write_checkpoint(
            cfg, tmp_path, CartTopology([10, 10], [14])
        )
        topo = CartTopology.from_shape((20, 14), rows=2, cols=2)

        def restorer(comm):
            driver = ParallelLBM(
                comm, cfg, topo=topo, policy="no-remap",
                checkpoint_store=CheckpointStore(root),
            )
            m = driver.restore_checkpoint()
            return driver.run(30 - m.step)

        results = run_spmd(4, restorer)
        assert np.array_equal(assemble_global_f(results), expected)

    def test_2d_checkpoint_restores_into_same_grid(self, tmp_path):
        cfg = config()
        expected = sequential_f(cfg, 30)
        topo = CartTopology.from_shape((20, 14), rows=2, cols=2)
        root = self._write_checkpoint(cfg, tmp_path, topo)

        def restorer(comm):
            driver = ParallelLBM(
                comm, cfg, topo=topo, policy="no-remap",
                checkpoint_store=CheckpointStore(root),
            )
            m = driver.restore_checkpoint()
            return driver.run(30 - m.step)

        results = run_spmd(4, restorer)
        assert np.array_equal(assemble_global_f(results), expected)


class TestResultRectangles:
    def test_run_results_carry_ownership_rectangles(self):
        cfg = config()
        result = run(
            RunSpec(config=cfg, phases=5, decomp=(2, 2), policy="no-remap")
        )
        rects = sorted(
            (r.plane_start, r.plane_count, r.col_start, r.col_count)
            for r in result.rank_results
        )
        assert rects == [(0, 10, 0, 7), (0, 10, 7, 7),
                         (10, 10, 0, 7), (10, 10, 7, 7)]
        seen = np.zeros((20, 14), dtype=int)
        for ps, pc, cs, cc in rects:
            seen[ps:ps + pc, cs:cs + cc] += 1
        assert (seen == 1).all()

    def test_mixed_slab_and_rectangle_results_rejected(self):
        cfg = config()
        # Raw records: an api.run result's records no longer hold slabs.
        grid = execute_parallel(
            RunSpec(config=cfg, phases=3, decomp=(2, 2), policy="no-remap")
        )
        slab = execute_parallel(
            RunSpec(
                config=cfg, phases=3, ranks=2, decomp="slab",
                policy="no-remap",
            )
        )
        with pytest.raises(ValueError, match="ownership map"):
            assemble_global_f([grid[0], slab[1]])

    def test_exposed_wait_is_reported(self):
        cfg = config()
        result = run(
            RunSpec(config=cfg, phases=5, decomp=(2, 2), policy="no-remap")
        )
        for r in result.rank_results:
            assert r.exposed_wait_s >= 0.0


class TestSpecValidation:
    def test_grid_must_fit_the_domain(self):
        cfg = config()
        with pytest.raises(ValueError):
            run(RunSpec(config=cfg, phases=2, decomp=(1, 40)))
