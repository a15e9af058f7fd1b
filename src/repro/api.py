"""The one documented entry point: describe a run, then run it.

A :class:`RunSpec` is a frozen description of everything a run needs —
the physics configuration, phase count, rank count and transport,
remapping policy, checkpoint policy, observability — and :func:`run`
executes it, dispatching to the sequential solver (``ranks == 1``) or
the parallel driver (``ranks > 1``) on either transport::

    from repro.api import RunSpec, run

    spec = RunSpec(config=cfg, phases=1000, ranks=4, transport="processes")
    result = run(spec)
    result.f          # global populations (C, Q, nx, *cross)
    result.velocity() # the final mixture velocity (D, nx, *cross)
    result.solver()   # a sequential solver holding the final state

Stop and health rules (:mod:`repro.lbm.loop`) are part of the spec, so
a spec stops on the same phase alone, stacked, served or parallel, and a
diverged run ends in a :class:`~repro.lbm.loop.NumericalInstability`
naming the phase, the rank and the spec's fingerprint: :func:`run`
raises it, :func:`run_batch` returns it in that spec's place.

Environment overlay: unset dispatch fields are filled from the
``REPRO_*`` variables via :func:`repro.config.from_env` (transport from
``REPRO_TRANSPORT``, checkpointing from the ``REPRO_CKPT_*`` family);
explicit spec values always win.  The experiments runner's CLI flags
build a ``RunSpec`` and land here too, so every path through the library
executes the same code.

Parameter sweeps: :func:`run_batch` takes a list of specs, groups the
ones that differ only in the swept scalar knobs (coupling matrix, wall
force amplitude, body force) into stacked ensembles
(:mod:`repro.lbm.ensemble`), and runs the rest through :func:`run` —
returning per-spec results (or divergence errors), bit-identical to
running each spec alone, in input order.  The ensemble's kernels are the ``fused`` arithmetic
over a batch axis, so a spec that names the ``reference`` oracle is
never stacked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import repro.config as config_mod
from repro.ckpt.io import sha256_bytes
from repro.ckpt.manifest import config_fingerprint
from repro.core.policies import RemappingConfig
from repro.lbm.loop import NumericalInstability, check_stop_rule
from repro.lbm.solver import LBMConfig, MulticomponentLBM
from repro.obs.observer import NULL_OBSERVER, ObserverLike
from repro.parallel.driver import (
    LoadTimeFn,
    ParallelRunResult,
    _run_parallel,
    _spec_observer,
    assemble_global_f,
)

__all__ = [
    "EnsembleRunResult",
    "RunSpec",
    "RunResult",
    "batch_compatible",
    "batch_exclusion_reason",
    "batch_partners",
    "canonical_spec_doc",
    "run",
    "run_batch",
    "spec_fingerprint",
]


@dataclass(frozen=True)
class RunSpec:
    """Complete, immutable description of one solver run.

    Sequential runs (``ranks == 1``, the default) execute on the
    in-process :class:`~repro.lbm.solver.MulticomponentLBM`; parallel
    runs (``ranks > 1``) on the slab-decomposed driver over the chosen
    *transport*.  Fields left at their defaults are overlaid from the
    environment by :func:`run` (see :mod:`repro.config`).
    """

    #: Physics/geometry configuration (shared by every rank).
    config: LBMConfig
    #: Total phase target (the cap, under a stop rule).  With
    #: ``resume=True`` this is absolute: a restored run executes only the
    #: remainder.
    phases: int
    #: Health (and, with ``tol``, convergence) check cadence in absolute
    #: phases; 0 checks health at the last phase only.
    check_every: int = 0
    #: Stop at the first check where no velocity component at any node
    #: changed by ``tol`` since the previous one (0: run to ``phases``).
    #: In the fingerprint when set.  A resumed run restarts this window
    #: (the velocity sample is not checkpointed).
    tol: float = 0.0
    #: 1 = sequential solver; > 1 = parallel, one x slab per rank.
    ranks: int = 1
    #: Parallel decomposition: ``"auto"`` or ``"slab"``, both the 1-D x
    #: slabs — the only layout (2-D rank grids were removed).
    decomp: str = "auto"
    #: Overlap interior kernel compute with halo exchange (parallel
    #: only; bit-identical to the blocking schedule by construction).
    halo_overlap: bool = True
    #: ``"threads"`` | ``"processes"`` | None (environment, then threads).
    transport: str | None = None
    #: Remapping policy name (parallel): filtered/conservative/global/no-remap.
    policy: str = "filtered"
    remap_config: RemappingConfig | None = None
    #: Synthetic per-phase load index for remapping tests (parallel only).
    load_time_fn: LoadTimeFn | None = None
    observer: ObserverLike = field(default=NULL_OBSERVER)
    #: Write a self-contained JSONL trace here (exclusive with observer).
    trace_path: str | None = None
    #: Explicit checkpoint store, or a directory from which one is built.
    checkpoint_store: Any = None
    checkpoint_dir: str | Path | None = None
    checkpoint_every: int = 0
    checkpoint_keep: int = 3
    resume: bool = False
    #: Fault-injection plan (:class:`repro.ckpt.FaultPlan`; parallel only).
    faults: Any = None
    #: Wall-clock limit for the rank world (parallel only).
    timeout: float = 600.0

    def __post_init__(self) -> None:
        if self.phases < 0:
            raise ValueError(f"phases must be >= 0, got {self.phases}")
        if self.ranks < 1:
            raise ValueError(f"ranks must be >= 1, got {self.ranks}")
        check_stop_rule(self.check_every, self.tol)
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.decomp not in ("auto", "slab"):
            raise ValueError(
                f"decomp must be 'auto' or 'slab' (1-D x slabs), got "
                f"{self.decomp!r}: 2-D rank grids were removed"
            )
        if self.checkpoint_store is not None and self.checkpoint_dir is not None:
            raise ValueError(
                "pass either checkpoint_store or checkpoint_dir, not both"
            )

    def fingerprint(self) -> str:
        """Content hash of everything that determines this run's
        *result* (see :func:`spec_fingerprint`)."""
        return spec_fingerprint(self)


def canonical_spec_doc(spec: RunSpec) -> dict[str, Any]:
    """The canonical JSON-able document a spec's fingerprint hashes.

    Only fields that determine the run's *output* participate: the
    physics fingerprint (:func:`repro.ckpt.manifest.config_fingerprint`,
    which already canonicalizes geometry, components, coupling, forcing
    and the wall scenario — its registry name plus *every*
    parameter, including a rough scenario's RNG seed, so the serve cache
    can never conflate two scenarios that share the remaining knobs),
    the kernel backend, the phase target, and the stop rule when it can
    stop a run (``tol > 0``; absent otherwise, so specs without one keep
    their fingerprints).  The backend is in because
    ``fused`` is within 1e-12 of ``reference``, not the same bits: a
    ``reference`` submission must never be answered with a ``fused``
    result.  (A checkpoint is state, not a result, so
    ``config_fingerprint`` itself stays blind to the backend and a run
    may resume under the other one.)  Execution knobs — rank count,
    decomposition knob, halo-overlap schedule, transport, remapping
    policy, checkpoint/trace/observer machinery — are deliberately
    absent: the transports, rank counts and schedules are
    bit-identical by contract, so two specs differing only there produce
    the same populations.  Consequently the environment overlay
    (:meth:`repro.config.EnvConfig.overlay`), which touches only
    dispatch fields, never changes a fingerprint.
    """
    doc = {
        "physics": config_fingerprint(spec.config),
        "kernel": spec.config.backend,
        "phases": int(spec.phases),
    }
    if spec.tol > 0:
        doc["stop"] = {"check_every": int(spec.check_every), "tol": float(spec.tol)}
    return doc


def spec_fingerprint(spec: RunSpec) -> str:
    """SHA-256 hex digest of :func:`canonical_spec_doc` — the
    content-address under which :mod:`repro.serve` deduplicates
    submissions and caches results.

    Computed once per spec object and kept on it.  That memo cannot go
    stale: a spec is frozen, and so is everything its document reads —
    the config's coupling matrix is a read-only view that cannot be made
    writable again.  A spec whose matrix is writable all the same (one
    rebuilt by ``pickle`` or ``copy.deepcopy``) is hashed afresh on
    every call."""
    frozen = not spec.config.g_matrix.flags.writeable
    if frozen and "_fingerprint" in spec.__dict__:
        return spec.__dict__["_fingerprint"]
    doc = json.dumps(canonical_spec_doc(spec), sort_keys=True)
    fingerprint = sha256_bytes(doc.encode())
    if frozen:
        object.__setattr__(spec, "_fingerprint", fingerprint)
    return fingerprint


@dataclass(repr=False)
class RunResult:
    """What :func:`run` returns, transport- and mode-agnostic.

    ``f`` is always the **global** population array ``(C, Q, nx,
    *cross)``, and the result's only copy of it; ``rank_results``
    carries the per-rank
    :class:`~repro.parallel.driver.ParallelRunResult` records for
    parallel runs (``None`` for sequential ones) — their ownership
    slabs, migration counts and timings, with ``f_interior``
    dropped once ``f`` is assembled.  :meth:`velocity` is
    the final mixture velocity: sequential runs and batched members
    carry it from the run's own moments, parallel runs derive it through
    :meth:`solver` when first asked.  ``repr()`` is a one-line summary:
    whatever formats a result — a log line, an assertion message,
    ``asyncio`` describing a finished task — must never format its
    arrays.
    """

    spec: RunSpec
    config: LBMConfig
    f: np.ndarray
    rank_results: list[ParallelRunResult] | None = None
    #: Why :func:`run_batch` executed this spec outside a batched
    #: ensemble (``None`` for batched members and plain :func:`run`
    #: calls); see :func:`batch_exclusion_reason`.
    batch_fallback_reason: str | None = None
    #: Phase count ``f`` stands at (an ensemble member may have
    #: converged before ``spec.phases``), the mixture velocity of that
    #: state, and the solver built from it.
    _steps: int | None = None
    _velocity: np.ndarray | None = None
    _solver: Any = None

    def __repr__(self) -> str:
        ranks = len(self.rank_results) if self.rank_results else 1
        return (
            f"{type(self).__name__}(f={self.f.shape}, "
            f"phases={self.spec.phases}, ranks={ranks}, "
            f"backend={self.config.backend!r}, "
            f"batch_fallback_reason={self.batch_fallback_reason!r})"
        )

    @property
    def steps(self) -> int:
        """The phase count ``f`` stands at."""
        return self.spec.phases if self._steps is None else self._steps

    def velocity(self) -> np.ndarray:
        """The final mixture velocity ``(D, nx, *cross)``, bit for bit
        what ``self.solver().velocity()`` returns — without building a
        solver when the run handed it over (sequential and batched
        results do)."""
        if self._velocity is None:
            self._velocity = self.solver().velocity()
        return self._velocity

    def solver(self) -> MulticomponentLBM:
        """A sequential solver holding the run's final state, so the
        full diagnostics toolbox (profiles, slip measures, exporters)
        applies to any run's output.  Built from ``f`` on first call
        (derived fields recomputed exactly as after an uninterrupted
        run) and kept: until then a result holds its populations and
        nothing of the solver that produced them."""
        if self._solver is None:
            self._solver = MulticomponentLBM(self.config, state=(self.f, self.steps))
        return self._solver


def _store_for(spec: RunSpec) -> Any:
    """The spec's checkpoint store: explicit, or built per-config under
    ``checkpoint_dir`` (same fingerprint-keyed layout as the
    ``REPRO_CKPT_DIR`` discovery path)."""
    if spec.checkpoint_store is not None:
        return spec.checkpoint_store
    if spec.checkpoint_dir is None:
        return None
    from repro.ckpt.policy import CheckpointPolicy

    policy = CheckpointPolicy(
        root=Path(spec.checkpoint_dir),
        every=spec.checkpoint_every,
        resume=spec.resume,
        keep_last=spec.checkpoint_keep,
    )
    return policy.store_for(spec.config)


def run(spec: RunSpec) -> RunResult:
    """Execute *spec* and return a :class:`RunResult`.

    Applies the environment overlay, resolves the checkpoint store
    once, then dispatches on ``spec.ranks``.  A diverged run raises
    :class:`~repro.lbm.loop.NumericalInstability` on either transport.
    """
    spec = config_mod.from_env().overlay(spec)
    store = _store_for(spec)
    if spec.resume and store is None:
        raise ValueError("resume=True needs a checkpoint_store or checkpoint_dir")
    if spec.ranks == 1:
        for name in ("load_time_fn", "faults"):
            if getattr(spec, name) is not None:
                raise ValueError(f"{name} requires ranks > 1")
    try:
        if spec.ranks == 1:
            return _run_sequential(spec, store)
        results = _run_parallel(spec, store)
    except NumericalInstability as exc:
        exc.fingerprint = spec_fingerprint(spec)
        raise
    f = assemble_global_f(results)
    for record in results:
        record.f_interior = None  # f holds the only copy
    return RunResult(
        spec=spec,
        config=spec.config,
        f=f,
        rank_results=results,
        _steps=results[0].phases,
    )


def execute_parallel(spec: RunSpec) -> list[ParallelRunResult]:
    """Run *spec* on the parallel driver regardless of ``ranks`` — a
    1-rank *parallel* world where :func:`run` would dispatch to the
    sequential solver — and return the raw per-rank results, each
    still holding its slab ``f_interior``."""
    spec = config_mod.from_env().overlay(spec)
    return _run_parallel(spec, _store_for(spec))


@dataclass(repr=False)
class EnsembleRunResult(RunResult):
    """A :class:`RunResult` produced by a batched-ensemble group.

    ``rank_results`` is ``None`` (no parallel world ran); ``member``
    carries the per-member ensemble record (steps actually advanced,
    convergence flag, residual).
    """

    member: Any = None


#: Reason strings :func:`batch_exclusion_reason` can return, in the
#: order the checks run.  ``no-compatible-partner`` is assigned by
#: :func:`run_batch` to eligible specs that found no group to join.
BATCH_EXCLUSION_REASONS = (
    "parallel-ranks",
    "checkpoint",
    "resume",
    "faults",
    "trace",
    "load-time-fn",
    "observer",
    "env-checkpoint",
    "adhesion",
    "backend",
    "no-compatible-partner",
)


def batch_exclusion_reason(
    spec: RunSpec, _env: config_mod.EnvConfig | None = None
) -> str | None:
    """Why *spec* cannot join a batched-ensemble group, or ``None`` when
    it is eligible: sequential, no checkpoint/resume/fault/trace
    machinery (neither explicit nor discovered from the environment),
    no wall adhesion, and the ``fused`` backend — the
    ensemble's kernels are the ``fused`` arithmetic over a batch axis,
    so a spec that names the ``reference`` oracle would come back with
    other bits than :func:`run` gives it.

    The reason lands on the fallback result
    (:attr:`RunResult.batch_fallback_reason`) and on the
    ``api.batch.fallback.<reason>`` observer counter, so callers that
    build batches — the :mod:`repro.serve` coalescer above all — can see
    *why* a spec went down the sequential path instead of guessing.
    (``_env``: the caller's :func:`repro.config.from_env` snapshot, so
    one public call parses the environment once.)
    """
    config = spec.config
    if spec.ranks != 1:
        return "parallel-ranks"
    if spec.checkpoint_store is not None or spec.checkpoint_dir is not None:
        return "checkpoint"
    if spec.resume:
        return "resume"
    if spec.faults is not None:
        return "faults"
    if spec.trace_path is not None:
        return "trace"
    if spec.load_time_fn is not None:
        return "load-time-fn"
    if spec.observer.enabled:
        return "observer"
    if (_env or config_mod.from_env()).ckpt_dir is not None:
        return "env-checkpoint"
    if config.adhesion is not None:
        return "adhesion"
    if config.backend != "fused":
        return "backend"
    return None


def batch_compatible(base: RunSpec, other: RunSpec) -> bool:
    """Whether two specs could share one batched-ensemble group: both
    eligible (:func:`batch_exclusion_reason` is ``None``), equal phase
    targets and stop rules, and differing only in the swept scalar
    knobs.  The :mod:`repro.serve` coalescer uses this to group queued
    jobs before handing them to :func:`run_batch`."""
    env = config_mod.from_env()
    base = env.overlay(base)
    other = env.overlay(other)
    return (
        batch_exclusion_reason(base, env) is None
        and batch_exclusion_reason(other, env) is None
        and batch_partners(base, other)
    )


def batch_partners(base: RunSpec, other: RunSpec) -> bool:
    """Whether two specs already overlaid from the environment and
    eligible (:func:`batch_exclusion_reason` is ``None`` for both) can
    share a group: equal phase targets and stop rules, differing only
    in the swept scalar knobs.  The part of :func:`batch_compatible` a
    caller that overlaid and screened its specs once — the
    :mod:`repro.serve` coalescer, at submit — probes per candidate pair."""
    return _member_delta(base, other) is not None


def _member_delta(base_spec: RunSpec, spec: RunSpec):
    """The :class:`~repro.lbm.ensemble.MemberParams` turning *base_spec*
    into *spec*, or ``None`` when their phase caps or stop rules differ,
    or their configs differ beyond the swept knobs (coupling matrix,
    wall-force amplitude, body acceleration, wall scenario with an
    unchanged solid mask)."""
    from repro.lbm.ensemble import MemberParams

    base, config = base_spec.config, spec.config
    if (
        (base_spec.phases, base_spec.check_every, base_spec.tol)
        != (spec.phases, spec.check_every, spec.tol)
        or base.geometry != config.geometry
        or base.components != config.components
        or base.lattice is not config.lattice
        or base.adhesion != config.adhesion
    ):
        return None
    scenario = None
    if (base.scenario is None) != (config.scenario is None):
        return None
    if base.scenario is not None and base.scenario != config.scenario:
        if (
            base.scenario.geometry_signature()
            != config.scenario.geometry_signature()
        ):
            return None  # different solid masks cannot share a batch
        scenario = config.scenario
    wall_amplitude = None
    if (base.wall_force is None) != (config.wall_force is None):
        return None
    if base.wall_force is not None:
        if (
            base.wall_force.decay_length != config.wall_force.decay_length
            or base.wall_force.component != config.wall_force.component
        ):
            return None
        if base.wall_force.amplitude != config.wall_force.amplitude:
            wall_amplitude = float(config.wall_force.amplitude)
    body = None
    if base.body_acceleration != config.body_acceleration:
        if config.body_acceleration is None:
            return None  # MemberParams cannot express "drop the body force"
        body = tuple(config.body_acceleration)
    g_matrix = None
    if not np.array_equal(
        np.asarray(base.g_matrix), np.asarray(config.g_matrix)
    ):
        g_matrix = np.asarray(config.g_matrix, dtype=np.float64)
    return MemberParams(
        g_matrix=g_matrix,
        wall_amplitude=wall_amplitude,
        body_acceleration=body,
        scenario=scenario,
    )


def run_batch(
    specs: list[RunSpec] | tuple[RunSpec, ...],
    *,
    observer: ObserverLike = NULL_OBSERVER,
) -> list[RunResult | NumericalInstability]:
    """Execute many specs, batching compatible ones into stacked
    ensembles.

    Specs that are sequential, carry no checkpoint/fault/trace
    machinery, run the default ``fused`` backend, and differ only in
    the swept scalar knobs — coupling matrix, wall-force amplitude, body
    acceleration — with equal phase targets and stop rules are grouped
    and advanced as one ``(C, Q, N, *S)`` array pass per step
    (:func:`repro.lbm.ensemble.run_ensemble`).  Everything else falls
    back to :func:`run`, with the reason on the result
    (:func:`batch_exclusion_reason`).  Results come back in input order
    and are bit-identical to running each spec individually: the
    ensemble's kernels are the ``fused`` kernels over a batch axis,
    which is why a ``reference`` spec is never stacked onto them.

    A diverged spec's slot holds the
    :class:`~repro.lbm.loop.NumericalInstability` that :func:`run` would
    raise for it, without a traceback; the other specs' results are
    unaffected, and nothing runs twice.  Any other exception raises.
    *observer*: ensemble-level observability (per-kernel timings,
    aggregate µs/point) for the batched groups.
    """
    from repro.lbm.ensemble import EnsembleSpec, run_ensemble

    specs = list(specs)
    env = config_mod.from_env()
    overlaid = [env.overlay(s) for s in specs]
    results: list[RunResult | NumericalInstability | None] = [None] * len(specs)
    fallback_reasons: dict[int, str] = {
        i: reason
        for i in range(len(specs))
        if (reason := batch_exclusion_reason(overlaid[i], env)) is not None
    }

    grouped: list[list[tuple[int, Any]]] = []
    assigned = [False] * len(specs)
    for i in range(len(specs)):
        if assigned[i] or i in fallback_reasons:
            continue
        from repro.lbm.ensemble import MemberParams

        group: list[tuple[int, Any]] = [(i, MemberParams())]
        assigned[i] = True
        for j in range(i + 1, len(specs)):
            if assigned[j] or j in fallback_reasons:
                continue
            delta = _member_delta(overlaid[i], overlaid[j])
            if delta is None:
                continue
            group.append((j, delta))
            assigned[j] = True
        grouped.append(group)

    for group in grouped:
        if len(group) == 1:
            # A lone member gains nothing from batching; the plain path
            # keeps every sequential behaviour.
            idx = group[0][0]
            fallback_reasons[idx] = "no-compatible-partner"
            results[idx] = _run_or_error(specs[idx])
            continue
        base = overlaid[group[0][0]]
        members = tuple(params for _, params in group)
        ens_spec = EnsembleSpec(base.config, members, base.check_every, base.tol)
        ens_result = run_ensemble(ens_spec, base.phases, observer=observer)
        for (idx, _), member in zip(group, ens_result.members):
            if isinstance(member, NumericalInstability):
                member.member = None  # the spec, not the batch row, failed
                member.fingerprint = spec_fingerprint(overlaid[idx])
                results[idx] = member
                continue
            results[idx] = EnsembleRunResult(
                spec=overlaid[idx],
                config=overlaid[idx].config,
                f=member.f,
                rank_results=None,
                member=member,
                _steps=member.steps,
                _velocity=member.u,
            )

    for i, spec in enumerate(specs):
        if results[i] is None:
            results[i] = _run_or_error(spec)
    for i, reason in fallback_reasons.items():
        if isinstance(results[i], RunResult):
            results[i].batch_fallback_reason = reason
        if observer.enabled:
            observer.counter(f"api.batch.fallback.{reason}").add()
    return results


def _run_or_error(spec: RunSpec) -> RunResult | NumericalInstability:
    """:func:`run`'s result, or its divergence without a traceback."""
    try:
        return run(spec)
    except NumericalInstability as exc:
        return exc.with_traceback(None)


def _run_sequential(spec: RunSpec, store: Any) -> RunResult:
    obs, owns_observer = _spec_observer(spec)
    # The result keeps this buffer.  It is taken before the solver's
    # state: taken after it, the kept buffer sat above the freed solver
    # in the heap and channel_seq's peak RSS rose by about 20 %.
    velocity = np.empty(
        (spec.config.lattice.D,) + spec.config.geometry.shape, dtype=np.float64
    )
    try:
        solver = MulticomponentLBM(spec.config, observer=obs)
        if spec.resume:
            manifest = store.latest_good()
            if manifest is not None:
                store.restore_solver(solver, manifest=manifest)
        remaining = max(0, spec.phases - solver.step_count)
        velocity[...] = solver.run(
            remaining,
            check_every=spec.check_every,
            tol=spec.tol,
            checkpoint_every=spec.checkpoint_every if store is not None else 0,
            checkpoint_store=store,
        )
        if obs.enabled:
            obs.emit_metrics()
    finally:
        if owns_observer:
            obs.close()
    return RunResult(
        spec=spec,
        config=spec.config,
        f=solver.f,
        rank_results=None,
        _steps=solver.step_count,
        _velocity=velocity,
    )