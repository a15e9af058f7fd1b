"""The Monte Carlo sweep engine: compile, execute, aggregate.

:func:`run_sweep` takes a :class:`~repro.sweep.spec.SweepSpec` and
submits its compiled specs to a :class:`repro.serve.Scheduler` on a kept
event loop (:func:`repro.serve.blocking.run_blocking`: no loop or thread
is built per call).  Its content-addressed cache and in-flight joining
collapse repeated samples (``repeats > 1`` or a duplicate-heavy
``Discrete`` prior) into single executions, its coalescer stacks what
remains into :func:`repro.api.run_batch` ensembles, and a sample that
diverged in round one is not run again in later rounds.

The final velocity each distinct sample's result carries is read once,
as the line across the channel on every streamwise plane
(:class:`~repro.lbm.diagnostics.StreamwiseLines`), and reduced to the
effective slip measures of :mod:`repro.lbm.diagnostics` — the wall slip
of all planes in one pass, the apparent core fit plane by plane until it
refuses one — averaged over the planes, so rough and patterned walls are
measured correctly.  The engine reports submissions/executions/dedup
accounting plus ``sweep.*`` observability.  A sample whose run diverged
is reported as failed, with its error and a NaN slip; the others are kept.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from repro.api import RunResult, RunSpec
from repro.lbm.diagnostics import (
    apparent_slip_fraction,
    effective_slip_fraction,
    streamwise_velocity_profiles,
)
from repro.obs.observer import NULL_OBSERVER, ObserverLike, resolve_observer
from repro.sweep.spec import SweepSpec


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
    #: Why the sample's run failed (then ``slip`` is NaN and ``steps`` 0).
    error: str | None = None


@dataclass
class SweepResult:
    """Everything :func:`run_sweep` measured."""

    spec: SweepSpec
    samples: tuple[SampleResult, ...]
    elapsed_s: float
    #: RunSpecs submitted (distinct samples × repeats).
    submissions: int
    #: Primary executions actually performed, after dedup.
    executions: int
    #: Fraction of submissions the serve layer absorbed without running.
    dedup_ratio: float
    cache_hit_rate: float
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Per-submission :class:`RunResult` records (a failed one's error),
    #: submission order; kept only with ``keep_results=True`` (so a
    #: caller can check served samples bitwise against direct runs).
    results: list[RunResult | Exception] | None = None

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
) -> tuple[list[list[RunResult | Exception]], list[str], dict[str, Any]]:
    """Serve *specs* on one Scheduler *repeats* times over, awaiting
    each round before the next — the repeated-study client shape: round
    one executes (duplicate samples join in flight), later rounds land
    in the content-addressed cache.  A failure is never cached, and a
    diverged run diverges again: later rounds repeat round one's error
    instead of resubmitting it.  Returns per-round outcomes, the key the
    scheduler computed for each spec, and the dedup accounting."""
    from repro.serve import JobFailed, Scheduler
    from repro.serve.blocking import run_blocking

    rounds: list[list[RunResult | Exception]] = []
    keys: list[str] = []
    stats: dict[str, Any] = {}

    async def _outcome(sched: Scheduler, job_id: str) -> RunResult | Exception:
        try:
            return await sched.result(job_id)
        except JobFailed as exc:
            if not exc.diverged:
                raise  # the worker's failure, not the sample's
            return exc.with_traceback(None)  # the sweep goes on

    async def _main() -> None:
        async with Scheduler(
            workers=workers, coalesce=coalesce, observer=observer
        ) as sched:
            known: list[Any] = [None] * len(specs)  # the last round's outcomes
            for _ in range(repeats):
                job_ids = [
                    None if isinstance(k, Exception) else await sched.submit(s)
                    for s, k in zip(specs, known)
                ]
                known = [
                    k if j is None else await _outcome(sched, j) for j, k in zip(job_ids, known)
                ]
                rounds.append(known)
                if not keys:  # round one submits every spec
                    keys.extend(sched.status(j).key for j in job_ids)
            stats.update(executions=sched.executions, cache_hit_rate=sched.cache.hit_rate())

    run_blocking(_main())
    submissions = len(specs) * repeats  # a repeated error is answered too
    stats.update(submissions=submissions, dedup_ratio=1.0 - stats["executions"] / submissions)
    return rounds, keys, stats


def run_sweep(
    spec: SweepSpec,
    *,
    via: str = "serve",
    observer: ObserverLike = NULL_OBSERVER,
    workers: int = 2,
    coalesce: int | None = None,
    boundary_layer: float = 4.0,
    keep_results: bool = False,
) -> SweepResult:
    """Serve *spec* and aggregate slip observables per distinct sample
    (the first repeat of each — repeats are bit-identical by the
    determinism contract, which the serve cache exploits rather than
    re-verifies here; ``keep_results=True`` hands the caller what an
    explicit bitwise check needs).  *via* names the one substrate,
    ``"serve"``; it stays a keyword for the callers that still pass it."""
    if via != "serve":
        raise ValueError(f"via must be 'serve', the one substrate, got {via!r}")
    obs = resolve_observer(observer, once=True)  # the sweep's one read
    params, distinct = spec.compile()
    start = time.perf_counter()
    # Round-major submission: each repeat round re-submits every
    # distinct sample, so rounds past the first are cache material.
    round_results, fingerprints, stats = _serve_rounds(
        distinct, spec.repeats, workers=workers, coalesce=coalesce, observer=obs
    )
    # Back to the sample-major order of spec.run_specs().
    results = [round_results[r][i] for i in range(spec.n_samples) for r in range(spec.repeats)]
    elapsed = time.perf_counter() - start

    apparent_measure = partial(apparent_slip_fraction, boundary_layer=boundary_layer)
    samples: list[SampleResult] = []
    for i in range(spec.n_samples):
        result = results[i * spec.repeats]
        if isinstance(result, Exception):
            error = f"{type(result).__name__}: {result}"
            measured = dict(slip=float("nan"), apparent_slip=None, steps=0, error=error)
        else:
            # One read of the streamwise lines serves both measures.
            lines = streamwise_velocity_profiles(result)
            try:
                apparent = effective_slip_fraction(lines, measure=apparent_measure)
            except ValueError:
                apparent = None  # too narrow for a core fit, or not concave yet
            slip = effective_slip_fraction(lines)
            measured = dict(slip=slip, apparent_slip=apparent, steps=result.steps)
        samples.append(
            SampleResult(index=i, params=params[i], fingerprint=fingerprints[i], **measured)
        )

    sweep_result = SweepResult(
        spec=spec,
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
