import numpy as np
import pytest

from repro.api import RunSpec, execute_parallel
from repro.core.policies import RemappingConfig
from repro.lbm.components import ComponentSpec
from repro.lbm.forces import WallForceSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.solver import LBMConfig, MulticomponentLBM
from repro.parallel.decomposition import CartTopology
from repro.parallel.driver import ParallelLBM, assemble_global_f
from repro.parallel.threads import run_spmd


def small_config(nx=20, ny=14, with_forces=True):
    geo = ChannelGeometry(shape=(nx, ny), wall_axes=(1,))
    comps = (
        ComponentSpec("water", tau=1.0, rho_init=1.0),
        ComponentSpec("air", tau=1.0, rho_init=0.03),
    )
    return LBMConfig(
        geometry=geo,
        components=comps,
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        wall_force=WallForceSpec(amplitude=0.03) if with_forces else None,
        body_acceleration=(1e-6, 0.0),
    )


def parallel_results(n_ranks, cfg, phases, **knobs):
    """Per-rank results of a parallel-driver run (``execute_parallel``
    keeps a 1-rank *parallel* world, which ``run`` would hand to the
    sequential solver)."""
    return execute_parallel(
        RunSpec(config=cfg, phases=phases, ranks=n_ranks, **knobs)
    )


def slow_rank_load_fn(slow_rank, avail=0.35):
    def fn(rank, phase, points):
        t = points * 1e-6
        return t / avail if rank == slow_rank else t

    return fn


class TestSequentialEquivalence:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 5])
    def test_static_bitwise_equal(self, n_ranks):
        cfg = small_config()
        seq = MulticomponentLBM(cfg)
        seq.run(25)
        results = parallel_results(n_ranks, cfg, 25, policy="no-remap")
        assert np.array_equal(assemble_global_f(results), seq.f)

    def test_migrating_bitwise_equal(self):
        cfg = small_config()
        seq = MulticomponentLBM(cfg)
        seq.run(40)
        results = parallel_results(
            4,
            cfg,
            40,
            policy="filtered",
            remap_config=RemappingConfig(interval=5, history=5),
            load_time_fn=slow_rank_load_fn(1),
        )
        assert np.array_equal(assemble_global_f(results), seq.f)

    def test_global_policy_bitwise_equal(self):
        cfg = small_config()
        seq = MulticomponentLBM(cfg)
        seq.run(30)
        results = parallel_results(
            3,
            cfg,
            30,
            policy="global",
            remap_config=RemappingConfig(interval=5, history=5),
            load_time_fn=slow_rank_load_fn(2),
        )
        assert np.array_equal(assemble_global_f(results), seq.f)

    def test_3d_equivalence(self):
        geo = ChannelGeometry(shape=(9, 8, 6))
        comps = (
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        )
        cfg = LBMConfig(
            geometry=geo,
            components=comps,
            g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
            lattice=D3Q19,
            wall_force=WallForceSpec(amplitude=0.02),
            body_acceleration=(1e-6, 0.0, 0.0),
        )
        seq = MulticomponentLBM(cfg)
        seq.run(15)
        results = parallel_results(3, cfg, 15, policy="no-remap")
        assert np.array_equal(assemble_global_f(results), seq.f)


class TestMigrationBehaviour:
    def test_slow_rank_evacuated(self):
        cfg = small_config()
        results = parallel_results(
            4,
            cfg,
            40,
            policy="filtered",
            remap_config=RemappingConfig(interval=5, history=5),
            load_time_fn=slow_rank_load_fn(1),
            decomp="slab",  # evacuation is asserted in whole planes
        )
        by_rank = sorted(results, key=lambda r: r.rank)
        assert by_rank[1].plane_count == 1
        assert by_rank[1].planes_sent >= 3

    def test_plane_conservation(self):
        cfg = small_config()
        results = parallel_results(
            4,
            cfg,
            40,
            policy="filtered",
            remap_config=RemappingConfig(interval=5, history=5),
            load_time_fn=slow_rank_load_fn(2),
            decomp="slab",  # every plane owned once across the ring
        )
        assert sum(r.plane_count for r in results) == 20

    def test_mass_conservation_across_migration(self):
        cfg = small_config()
        seq = MulticomponentLBM(cfg)
        m0 = seq.total_mass()
        results = parallel_results(
            4,
            cfg,
            40,
            policy="filtered",
            remap_config=RemappingConfig(interval=5, history=5),
            load_time_fn=slow_rank_load_fn(1),
        )
        assert sum(r.mass for r in results) == pytest.approx(m0, rel=1e-12)

    def test_no_migration_without_imbalance(self):
        cfg = small_config()
        results = parallel_results(
            4,
            cfg,
            30,
            policy="filtered",
            remap_config=RemappingConfig(interval=5, history=5),
            load_time_fn=lambda rank, phase, points: points * 1e-6,
        )
        assert all(r.planes_sent == 0 for r in results)

    def test_global_policy_balances_to_speed(self):
        cfg = small_config()
        results = parallel_results(
            4,
            cfg,
            40,
            policy="global",
            remap_config=RemappingConfig(interval=5, history=5),
            load_time_fn=slow_rank_load_fn(1, avail=0.5),
        )
        by_rank = sorted(results, key=lambda r: r.rank)
        # Slow rank ends with roughly half of the fast ranks' planes.
        fast = np.mean([by_rank[i].plane_count for i in (0, 2, 3)])
        assert by_rank[1].plane_count <= 0.75 * fast


    @pytest.mark.parametrize(
        "availabilities, settled",
        [((1.0, 0.07, 0.43), [14, 1, 6]), ((0.43, 0.07, 1.0), [6, 1, 14])],
        ids=["leftward", "rightward"],
    )
    def test_global_traffic_through_a_one_plane_rank(
        self, availabilities, settled
    ):
        """``global`` plans four planes *through* the one-plane middle
        rank.  A rank sends before it receives, so the relay is cut to
        what the rank owns and completes a round later — in either
        direction, bit-exactly."""
        cfg = small_config(nx=21)
        seq = MulticomponentLBM(cfg)
        seq.run(10)

        def load_fn(rank, phase, points):
            return points * 1e-6 / availabilities[rank]

        def rank_main(comm):
            return ParallelLBM(
                comm, cfg, topo=CartTopology([10, 1, 10], [14]),
                policy="global",
                remap_config=RemappingConfig(interval=5, history=5),
                load_time_fn=load_fn,
            ).run(10)

        results = run_spmd(3, rank_main, timeout=60.0)
        assert [r.plane_count for r in results] == settled
        assert [r.plane_history for r in results][1] == [1, 5, 1]
        assert np.array_equal(assemble_global_f(results), seq.f)


class TestDriverValidation:
    def test_counts_must_sum(self):
        cfg = small_config()

        def fn(comm):
            with pytest.raises(ValueError, match="sum"):
                ParallelLBM(
                    comm, cfg, topo=CartTopology([5] * comm.size, [14])
                )
            return True

        assert all(run_spmd(2, fn))

    def test_counts_length_checked(self):
        cfg = small_config()

        def fn(comm):
            with pytest.raises(ValueError, match="subdomains"):
                ParallelLBM(comm, cfg, topo=CartTopology([20], [14]))
            return True

        assert all(run_spmd(2, fn))

    def test_unknown_policy_rejected_at_construction(self):
        cfg = small_config()

        def fn(comm):
            with pytest.raises(ValueError, match="unknown policy"):
                ParallelLBM(comm, cfg, policy="filtred")
            return True

        assert all(run_spmd(2, fn))

    def test_more_ranks_than_planes(self):
        cfg = small_config(nx=3)
        # A 2-D grid could legally place 5 ranks on 3 planes (1x5), so
        # pin the slab: this test is about the 1-D plane-count limit.
        with pytest.raises(ValueError, match="cannot split"):
            parallel_results(5, cfg, 2, decomp="slab")

    def test_history_reported(self):
        cfg = small_config()
        results = parallel_results(
            2,
            cfg,
            20,
            policy="filtered",
            remap_config=RemappingConfig(interval=10, history=5),
            load_time_fn=lambda r, p, n: n * 1e-6,
            decomp="slab",  # history entries below count slab planes
        )
        for r in results:
            assert len(r.comp_times) == 20
            assert r.plane_history[0] == 10
