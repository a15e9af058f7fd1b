"""Benchmarks of the real in-process parallel substrate: halo-exchange
overhead and migration cost on actual numpy buffers."""

import numpy as np
import pytest

from repro.api import RunSpec, run
from repro.core.policies import RemappingConfig
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig, MulticomponentLBM
from repro.parallel.migration import pack_band, unpack_band


def channel_config(nx=48, ny=40):
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


def test_bench_sequential_reference(benchmark):
    cfg = channel_config()
    solver = MulticomponentLBM(cfg)
    benchmark.pedantic(lambda: solver.run(20), rounds=3, iterations=1)


@pytest.mark.parametrize("ranks", [2, 4])
def test_bench_parallel_ranks(benchmark, ranks):
    cfg = channel_config()
    spec = RunSpec(config=cfg, phases=20, ranks=ranks, policy="no-remap")
    benchmark.pedantic(lambda: run(spec), rounds=3, iterations=1)
    benchmark.extra_info["note"] = (
        "threads share the GIL; this measures protocol overhead, not speedup"
    )


def test_bench_migration_roundtrip(benchmark):
    rng = np.random.default_rng(0)
    f = np.zeros((2, 19, 22, 200, 20))
    f[:, :, 1:-1] = rng.random((2, 19, 20, 200, 20))

    def roundtrip():
        package, rest = pack_band(f, "high", 5)
        return unpack_band(rest, package, "high")

    benchmark(roundtrip)
    plane_bytes = 2 * 19 * 200 * 20 * 8
    benchmark.extra_info["plane_MB"] = round(plane_bytes / 1e6, 2)


def test_bench_parallel_with_migration(benchmark):
    cfg = channel_config()

    def load_fn(rank, phase, points):
        t = points * 1e-6
        return t / 0.35 if rank == 1 else t

    spec = RunSpec(
        config=cfg,
        phases=30,
        ranks=3,
        policy="filtered",
        remap_config=RemappingConfig(interval=5, history=5),
        load_time_fn=load_fn,
    )
    benchmark.pedantic(lambda: run(spec), rounds=2, iterations=1)
