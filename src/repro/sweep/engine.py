"""The Monte Carlo sweep engine: compile, execute, aggregate.

:func:`run_sweep` takes a :class:`~repro.sweep.spec.SweepSpec` and runs
it on one of two substrates:

- ``via="batch"`` — the compiled specs go to :func:`repro.api.run_batch`,
  which stacks batch-compatible samples (same scenario geometry, swept
  scalar knobs) into ``(N, C, Q, *S)`` ensemble passes;
- ``via="serve"`` — the specs are submitted to a
  :class:`repro.serve.Scheduler`, whose content-addressed cache and
  in-flight joining collapse repeated samples (``repeats > 1`` or a
  duplicate-heavy ``Discrete`` prior) into single executions, and whose
  coalescer still batches what remains.

Either way the final velocity each distinct sample's result carries is
reduced to the effective slip measures of :mod:`repro.lbm.diagnostics`
(streamwise averaged, so rough and patterned walls are measured correctly),
and the engine reports submissions/executions/dedup accounting plus ``sweep.*``
observability.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from repro.api import RunResult, RunSpec, run_batch
from repro.lbm.diagnostics import (
    apparent_slip_fraction,
    effective_slip_fraction,
    streamwise_velocity_profiles,
)
from repro.obs.observer import NULL_OBSERVER, ObserverLike, resolve_observer
from repro.sweep.spec import SweepSpec

#: Recognized execution substrates.
SUBSTRATES = ("batch", "serve")


@dataclass(frozen=True)
class SampleResult:
    """One distinct sample's parameters and aggregated observables."""

    index: int
    params: dict[str, Any]
    fingerprint: str
    slip: float
    #: Parabolic-core-fit slip; ``None`` when the channel is too narrow for a
    #: core fit, or while the core profile is not concave (still a transient).
    apparent_slip: float | None
    steps: int


@dataclass
class SweepResult:
    """Everything :func:`run_sweep` measured."""

    spec: SweepSpec
    via: str
    samples: tuple[SampleResult, ...]
    elapsed_s: float
    #: RunSpecs submitted (distinct samples × repeats).
    submissions: int
    #: Primary executions actually performed (serve: after dedup).
    executions: int
    #: Fraction of submissions the serve layer absorbed without running
    #: (0.0 on the batch substrate, which executes everything).
    dedup_ratio: float
    cache_hit_rate: float
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Per-submission :class:`RunResult` records, submission order; kept
    #: only when :func:`run_sweep` ran with ``keep_results=True`` (so a
    #: caller can check served samples bitwise against direct runs).
    results: list[RunResult] | None = None

    def slip_array(self) -> np.ndarray:
        return np.asarray([s.slip for s in self.samples], dtype=np.float64)

    @property
    def samples_per_second(self) -> float:
        """Served submissions per wall-clock second (cache wins count —
        that is the point of serving a sweep)."""
        return self.submissions / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def us_per_point(self) -> float:
        """Wall-clock cost per *executed* lattice-point update."""
        points = (
            self.executions
            * int(self.spec.phases)
            * int(np.prod(self.spec.base_config.geometry.shape))
        )
        return self.elapsed_s / max(points, 1) * 1e6


def _serve_rounds(
    specs: list[RunSpec],
    repeats: int,
    *,
    workers: int,
    coalesce: int | None,
    observer: ObserverLike,
    check_every: int,
    tol: float,
) -> tuple[list[list[RunResult]], list[str], dict[str, Any]]:
    """Serve *specs* on one Scheduler *repeats* times over, awaiting
    each round before the next — the repeated-study client shape: round
    one executes (duplicate samples join in flight), later rounds land
    in the content-addressed cache.  Returns per-round results, the
    fingerprint the scheduler computed for each spec, and its dedup
    accounting."""
    from repro.serve import Scheduler

    rounds: list[list[RunResult]] = []
    keys: list[str] = []
    stats: dict[str, Any] = {}

    # Everything leaves through the closure and the coroutine returns
    # nothing: whatever describes the finished main task (CPython
    # 3.11's ``asyncio.run`` does, on the way out) must not find the
    # payload in it.
    async def _main() -> None:
        async with Scheduler(
            workers=workers,
            coalesce=coalesce,
            observer=observer,
            check_every=check_every,
            tol=tol,
        ) as sched:
            for _ in range(repeats):
                job_ids = [await sched.submit(s) for s in specs]
                rounds.append([await sched.result(j) for j in job_ids])
            # Every round submits the same specs, so any round's jobs
            # carry their keys; the last one's are at hand.
            keys.extend(sched.status(j).key for j in job_ids)
            stats.update(
                submissions=sched.submissions,
                executions=sched.executions,
                dedup_ratio=sched.dedup_ratio(),
                cache_hit_rate=sched.cache.hit_rate(),
            )

    asyncio.run(_main())
    return rounds, keys, stats


def run_sweep(
    spec: SweepSpec,
    *,
    via: str = "batch",
    check_every: int = 0,
    tol: float = 0.0,
    observer: ObserverLike = NULL_OBSERVER,
    workers: int = 2,
    coalesce: int | None = None,
    boundary_layer: float = 4.0,
    keep_results: bool = False,
) -> SweepResult:
    """Execute *spec* on the chosen substrate and aggregate slip
    observables per distinct sample (the first repeat of each — repeats
    are bit-identical by the determinism contract, which the serve cache
    exploits rather than re-verifies here; ``keep_results=True`` hands
    the caller what an explicit bitwise check needs)."""
    if via not in SUBSTRATES:
        raise ValueError(f"via must be one of {SUBSTRATES}, got {via!r}")
    obs = resolve_observer(observer)
    params, distinct = spec.compile()
    start = time.perf_counter()
    if via == "serve":
        # Round-major submission: each repeat round re-submits every
        # distinct sample, so rounds past the first are cache material.
        round_results, fingerprints, stats = _serve_rounds(
            distinct,
            spec.repeats,
            workers=workers,
            coalesce=coalesce,
            observer=obs,
            check_every=check_every,
            tol=tol,
        )
        # Back to the sample-major order of spec.run_specs().
        results = [
            round_results[r][i]
            for i in range(spec.n_samples)
            for r in range(spec.repeats)
        ]
    else:
        specs = [s for s in distinct for _ in range(spec.repeats)]
        results = run_batch(
            specs, check_every=check_every, tol=tol, observer=obs
        )
        fingerprints = [s.fingerprint() for s in distinct]
        stats = {
            "submissions": len(specs),
            "executions": len(specs),
            "dedup_ratio": 0.0,
            "cache_hit_rate": 0.0,
        }
    elapsed = time.perf_counter() - start

    apparent_measure = partial(
        apparent_slip_fraction, boundary_layer=boundary_layer
    )
    samples: list[SampleResult] = []
    for i in range(spec.n_samples):
        result = results[i * spec.repeats]
        # One extraction of the streamwise lines serves both measures.
        lines = streamwise_velocity_profiles(result)
        slip = effective_slip_fraction(lines)
        try:
            apparent: float | None = effective_slip_fraction(
                lines, measure=apparent_measure
            )
        except ValueError:
            apparent = None  # too narrow for a core fit, or not concave yet
        samples.append(
            SampleResult(
                index=i,
                params=params[i],
                fingerprint=fingerprints[i],
                slip=slip,
                apparent_slip=apparent,
                steps=result.steps,
            )
        )

    sweep_result = SweepResult(
        spec=spec,
        via=via,
        samples=tuple(samples),
        elapsed_s=elapsed,
        submissions=int(stats["submissions"]),
        executions=int(stats["executions"]),
        dedup_ratio=float(stats["dedup_ratio"]),
        cache_hit_rate=float(stats["cache_hit_rate"]),
        results=list(results) if keep_results else None,
    )
    if obs.enabled:
        obs.counter("sweep.samples").add(spec.n_samples)
        obs.counter("sweep.submissions").add(sweep_result.submissions)
        obs.counter("sweep.executions").add(sweep_result.executions)
        obs.gauge("sweep.dedup_ratio").set(sweep_result.dedup_ratio)
        obs.gauge("sweep.cache_hit_rate").set(sweep_result.cache_hit_rate)
        obs.gauge("sweep.samples_per_second").set(
            sweep_result.samples_per_second
        )
        obs.gauge("sweep.us_per_point").set(sweep_result.us_per_point)
        obs.emit(
            "sweep.run",
            scenario=spec.base_config.scenario.name,
            via=via,
            samples=spec.n_samples,
            submissions=sweep_result.submissions,
            executions=sweep_result.executions,
            dedup_ratio=sweep_result.dedup_ratio,
            cache_hit_rate=sweep_result.cache_hit_rate,
            us_per_point=sweep_result.us_per_point,
        )
        obs.emit_metrics()
        sweep_result.metrics = {
            "sweep.samples_per_second": sweep_result.samples_per_second,
            "sweep.dedup_ratio": sweep_result.dedup_ratio,
            "sweep.us_per_point": sweep_result.us_per_point,
        }
    return sweep_result
