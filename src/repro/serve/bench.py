"""Synthetic client load for the scheduler, and its benchmark payload.

The workload models the related-work parameter studies (rough walls,
patterned slip): hundreds of near-duplicate specs differing in a few
scalars.  :func:`make_workload` draws a stream of small microchannel
specs in which a configurable fraction are exact duplicates;
:func:`run_load` fires them at a :class:`~repro.serve.Scheduler` from
many concurrent async clients and measures sustained jobs/sec, latency
percentiles, cache hit-rate and dedup ratio; :func:`sequential_baseline`
times the naive alternative — every submission executed by a direct
:func:`repro.api.run` call, no dedup, no cache.  :func:`benchmark_serve`
sweeps duplicate fractions and assembles the ``BENCH_serve.json``
payload shared by the ``fig-serve`` experiment, the benchmark suite and
the ``python -m repro.serve`` CLI.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.api import RunSpec, run
from repro.ckpt.io import atomic_write_json
from repro.lbm.components import ComponentSpec
from repro.lbm.forces import WallForceSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig
from repro.obs.observer import NULL_OBSERVER, ObserverLike
from repro.serve.scheduler import Scheduler
from repro.util.rng import make_rng

#: Default benchmark shape/phase budget: small enough that one unique
#: spec completes in tens of milliseconds, so the scheduling overhead is
#: visible rather than drowned by solver time.
DEFAULT_SHAPE = (12, 18)
DEFAULT_PHASES = 6

#: The duplicate fractions the benchmark sweeps.
DUPLICATE_FRACTIONS = (0.0, 0.5, 0.9)


def base_config(shape: tuple[int, int] = DEFAULT_SHAPE) -> LBMConfig:
    """The water/air microchannel every workload spec varies from."""
    return LBMConfig(
        geometry=ChannelGeometry(shape=shape, wall_axes=(1,)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        wall_force=WallForceSpec(amplitude=0.05, decay_length=2.0),
        body_acceleration=(1e-6, 0.0),
    )


def make_workload(
    n_jobs: int,
    duplicate_fraction: float,
    *,
    seed: int = 1234,
    phases: int = DEFAULT_PHASES,
    shape: tuple[int, int] = DEFAULT_SHAPE,
) -> list[RunSpec]:
    """A deterministic stream of *n_jobs* specs in which roughly
    *duplicate_fraction* of the submissions repeat an earlier spec.

    Unique specs sweep the hydrophobicity amplitude (the patterned-slip
    client shape); duplicates are drawn uniformly from the uniques
    already emitted, interleaved the way independent clients would
    submit them.
    """
    if not 0.0 <= duplicate_fraction <= 1.0:
        raise ValueError(
            f"duplicate_fraction must be in [0, 1], got {duplicate_fraction}"
        )
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    rng = make_rng(seed)
    cfg = base_config(shape)
    n_unique = max(1, round(n_jobs * (1.0 - duplicate_fraction)))
    amplitudes = 0.02 + 0.08 * rng.random(n_unique)
    uniques = [
        RunSpec(
            config=dataclasses.replace(
                cfg,
                wall_force=dataclasses.replace(
                    cfg.wall_force, amplitude=float(a)
                ),
            ),
            phases=phases,
        )
        for a in amplitudes
    ]
    specs = list(uniques)
    while len(specs) < n_jobs:
        specs.append(uniques[int(rng.integers(len(uniques)))])
    order = rng.permutation(len(specs))
    return [specs[i] for i in order]


@dataclass
class LoadReport:
    """What one served client load measured."""

    n_jobs: int
    duplicate_fraction: float
    clients: int
    workers: int
    coalesce: int
    wall_seconds: float
    jobs_per_second: float
    p50_latency_seconds: float
    p99_latency_seconds: float
    cache_hit_rate: float
    dedup_ratio: float
    executions: int

    def row(self) -> tuple:
        return (
            f"{self.duplicate_fraction:.1f}",
            self.n_jobs,
            self.executions,
            self.jobs_per_second,
            1e3 * self.p50_latency_seconds,
            1e3 * self.p99_latency_seconds,
            self.cache_hit_rate,
            self.dedup_ratio,
        )


async def _client(
    sched: Scheduler,
    specs: list[RunSpec],
    latencies: list[float],
    results: list[Any],
    slots: range,
) -> None:
    """One async client: submit its slice, await every result into its
    *slots* of *results*, record per-job latency."""
    for spec, slot in zip(specs, slots):
        start = time.perf_counter()
        job_id = await sched.submit(spec)
        results[slot] = await sched.result(job_id)
        latencies.append(time.perf_counter() - start)


async def _run_load_async(
    specs: list[RunSpec],
    results: list[Any],
    latencies: list[float],
    *,
    clients: int,
    workers: int,
    coalesce: int,
    observer: ObserverLike,
) -> dict[str, float]:
    """Fill *results* (input order) and *latencies*; return only the
    scheduler's counters — no coroutine here returns a payload, so
    nothing that describes a finished task can find one to format."""
    async with Scheduler(
        workers=workers, coalesce=coalesce, observer=observer
    ) as sched:
        indices = range(len(specs))
        await asyncio.gather(
            *(
                _client(
                    sched, specs[i::clients], latencies, results, indices[i::clients]
                )
                for i in range(clients)
            )
        )
        return {
            "hit_rate": sched.hit_rate(),
            "dedup_ratio": sched.dedup_ratio(),
            "executions": float(sched.executions),
        }


def run_load(
    specs: list[RunSpec],
    *,
    clients: int = 8,
    workers: int = 2,
    coalesce: int = 8,
    observer: ObserverLike = NULL_OBSERVER,
    duplicate_fraction: float | None = None,
) -> tuple[LoadReport, list[Any]]:
    """Serve *specs* from *clients* concurrent submitters and measure
    the sustained throughput; returns the report and the per-spec
    results (input order)."""
    results: list[Any] = [None] * len(specs)
    latencies: list[float] = []
    start = time.perf_counter()
    stats = asyncio.run(
        _run_load_async(
            specs,
            results,
            latencies,
            clients=clients,
            workers=workers,
            coalesce=coalesce,
            observer=observer,
        )
    )
    wall = time.perf_counter() - start
    lat = np.asarray(latencies, dtype=np.float64)
    report = LoadReport(
        n_jobs=len(specs),
        duplicate_fraction=(
            duplicate_fraction if duplicate_fraction is not None else -1.0
        ),
        clients=clients,
        workers=workers,
        coalesce=coalesce,
        wall_seconds=wall,
        jobs_per_second=len(specs) / wall,
        p50_latency_seconds=float(np.percentile(lat, 50)),
        p99_latency_seconds=float(np.percentile(lat, 99)),
        cache_hit_rate=float(stats["hit_rate"]),
        dedup_ratio=float(stats["dedup_ratio"]),
        executions=int(stats["executions"]),
    )
    return report, results


def sequential_baseline(specs: list[RunSpec]) -> tuple[float, list[Any]]:
    """Naive service: every submission is a direct :func:`repro.api.run`
    call, one after another — no dedup, no cache, no coalescing.
    Returns (jobs_per_second, results)."""
    start = time.perf_counter()
    results = [run(spec) for spec in specs]
    wall = time.perf_counter() - start
    return len(specs) / wall, results


def benchmark_serve(
    *,
    n_jobs: int = 64,
    clients: int = 8,
    workers: int = 2,
    coalesce: int = 8,
    fractions: tuple[float, ...] = DUPLICATE_FRACTIONS,
    phases: int = DEFAULT_PHASES,
    seed: int = 1234,
    verify: bool = True,
) -> dict[str, Any]:
    """Sweep duplicate fractions and build the ``BENCH_serve.json``
    payload.  With *verify* every served result is checked bit-identical
    against the sequential baseline's."""
    duplicates: dict[str, Any] = {}
    for fraction in fractions:
        specs = make_workload(
            n_jobs, fraction, seed=seed, phases=phases
        )
        report, results = run_load(
            specs,
            clients=clients,
            workers=workers,
            coalesce=coalesce,
            duplicate_fraction=fraction,
        )
        seq_jps, seq_results = sequential_baseline(specs)
        if verify:
            for served, direct in zip(results, seq_results):
                if not np.array_equal(served.f, direct.f):
                    raise AssertionError(
                        "served result diverged from direct run()"
                    )
        duplicates[f"{fraction:.1f}"] = {
            "jobs_per_second": round(report.jobs_per_second, 2),
            "sequential_jobs_per_second": round(seq_jps, 2),
            "speedup_vs_sequential": round(
                report.jobs_per_second / seq_jps, 2
            ),
            "p50_latency_seconds": round(report.p50_latency_seconds, 5),
            "p99_latency_seconds": round(report.p99_latency_seconds, 5),
            "cache_hit_rate": round(report.cache_hit_rate, 3),
            "dedup_ratio": round(report.dedup_ratio, 3),
            "executions": report.executions,
            "verified_bit_identical": bool(verify),
        }
    return {
        "serve": {
            "n_jobs": n_jobs,
            "clients": clients,
            "workers": workers,
            "coalesce": coalesce,
            "phases": phases,
            "shape": list(DEFAULT_SHAPE),
            "unit": "jobs_per_second",
            "duplicates": duplicates,
        }
    }


def write_bench(payload: dict[str, Any], path: str | Path) -> None:
    """Atomically publish the benchmark payload (REP005 discipline)."""
    atomic_write_json(path, payload)
