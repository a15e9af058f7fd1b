"""End-to-end remapping dynamics in the real parallel driver: slowdown,
evacuation, recovery, re-balancing — with the physics checked bitwise
throughout."""

import numpy as np
import pytest

from repro.api import RunSpec, run
from repro.core.policies import RemappingConfig
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig, MulticomponentLBM


def config(nx=24, ny=14):
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
        body_acceleration=(1e-6, 0.0),
    )


def remapped_run(cfg, phases, load_fn, policy="filtered", **knobs):
    """A 3-rank run with a 5-phase remap interval and history."""
    remap_config = RemappingConfig(interval=5, history=5, **knobs)
    return run(
        RunSpec(
            config=cfg,
            phases=phases,
            ranks=3,
            policy=policy,
            remap_config=remap_config,
            load_time_fn=load_fn,
        )
    )


class TestRecovery:
    def test_load_returns_after_recovery(self):
        """Rank 1 is slow for the first 40 phases, then recovers; by the
        end it should have regained a fair share of planes."""

        def load_fn(rank, phase, points):
            t = points * 1e-6
            if rank == 1 and phase <= 40:
                t /= 0.35
            return t

        cfg = config()
        result = remapped_run(cfg, 160, load_fn, fast_to_slow_tolerance=0.1)
        by_rank = sorted(result.rank_results, key=lambda r: r.rank)
        history = by_rank[1].plane_history
        assert min(history) <= 2  # was evacuated during the slowdown
        assert by_rank[1].plane_count >= 5  # and re-balanced afterwards

    def test_physics_bitwise_through_recovery(self):
        def load_fn(rank, phase, points):
            t = points * 1e-6
            if rank == 1 and phase <= 40:
                t /= 0.35
            return t

        cfg = config()
        seq = MulticomponentLBM(cfg)
        seq.run(160)
        result = remapped_run(cfg, 160, load_fn, fast_to_slow_tolerance=0.1)
        assert np.array_equal(result.f, seq.f)

    def test_alternating_slow_ranks(self):
        """The slow rank moves around; planes must keep being conserved
        and the physics exact."""

        def load_fn(rank, phase, points):
            t = points * 1e-6
            victim = (phase // 30) % 3
            if rank == victim:
                t /= 0.4
            return t

        cfg = config()
        seq = MulticomponentLBM(cfg)
        seq.run(120)
        result = remapped_run(cfg, 120, load_fn, fast_to_slow_tolerance=0.1)
        assert sum(r.plane_count for r in result.rank_results) == 24
        assert np.array_equal(result.f, seq.f)

    def test_conservative_policy_also_exact(self):
        def load_fn(rank, phase, points):
            t = points * 1e-6
            return t / 0.35 if rank == 0 else t

        cfg = config()
        seq = MulticomponentLBM(cfg)
        seq.run(80)
        result = remapped_run(cfg, 80, load_fn, policy="conservative")
        assert np.array_equal(result.f, seq.f)
        by_rank = sorted(result.rank_results, key=lambda r: r.rank)
        assert by_rank[0].plane_count < 8  # shed some load conservatively
