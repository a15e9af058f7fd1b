"""Batched ensembles: many microchannel runs as one stacked array pass.

The paper's parameter studies — slip versus wall-interaction strength,
driving force or coupling — run one channel with different scalar
knobs.  This module stacks B such members on the grid ``(B, *S)`` —
state ``(C, Q, B, *S)`` — and advances them with one
:class:`~repro.lbm.backends.fused.FusedBackend` whose leading axis
nothing streams along, so the per-step dispatch cost is paid once per
batch instead of once per member.

Bitwise contract: member ``b`` is **exactly** the standalone ``fused``
run of ``spec.member_config(b)`` (the single source of truth for member
configurations), stop rule included: under the spec's ``check_every`` /
``tol`` (:mod:`repro.lbm.loop`) a converged member is snapshotted and
retired at the step its lone run stops at, and the survivors are
**repacked** into a narrower batch (the kernels are batch-width
independent).  A diverged member raises
:class:`~repro.lbm.loop.NumericalInstability` for the whole batch.

Usage::

    spec = EnsembleSpec(base_config, tuple(
        MemberParams(wall_amplitude=a) for a in (0.05, 0.1, 0.2)),
        check_every=50, tol=1e-9)
    result = run_ensemble(spec, 2000)
    for member in result.members:
        solver = member.solver()          # full solver at the final state

See :func:`repro.api.run_batch` for the spec-level facade.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.lbm.backends.fused import FusedBackend
from repro.lbm.equilibrium import rest_equilibrium
from repro.lbm.forces import acceleration_field, solid_mask_field
from repro.lbm.loop import StepLoop, check_stop_rule
from repro.lbm.macroscopic import mixture_velocity
from repro.lbm.solver import LBMConfig, MulticomponentLBM
from repro.obs.observer import NULL_OBSERVER, ObserverLike, resolve_observer

if TYPE_CHECKING:  # repro.scenarios imports repro.lbm; never the reverse
    from repro.scenarios.base import Scenario


@dataclass(frozen=True)
class MemberParams:
    """Per-member scalar knobs of one ensemble member; unset fields
    inherit the base config."""

    #: Replacement Shan-Chen coupling matrix.
    g_matrix: np.ndarray | None = None
    #: Hydrophobic wall-force amplitude (the base needs a ``wall_force``).
    wall_amplitude: float | None = None
    body_acceleration: tuple[float, ...] | None = None
    #: Wall-physics scenario; its geometry signature must match the
    #: base's, since the batch shares one solid mask (:mod:`repro.scenarios`).
    scenario: "Scenario | None" = None


@dataclass(frozen=True)
class EnsembleSpec:
    """A base configuration, one :class:`MemberParams` per member, and
    the stop rule every member runs under (see :mod:`repro.lbm.loop`)."""

    base: LBMConfig
    members: tuple[MemberParams, ...]
    check_every: int = 0
    tol: float = 0.0

    def __post_init__(self) -> None:
        check_stop_rule(self.check_every, self.tol)
        members = tuple(self.members)
        if not members:
            raise ValueError("an ensemble needs at least one member")
        if self.base.adhesion is not None:
            raise ValueError(
                "batched ensembles do not support wall adhesion; use the "
                "explicit wall_force channel for wettability sweeps"
            )
        if self.base.backend != FusedBackend.name:
            raise ValueError(
                f"batched ensembles run the {FusedBackend.name!r} kernels; "
                f"a {self.base.backend!r} config runs alone"
            )
        base = self.base
        for i, params in enumerate(members):
            if params.wall_amplitude is not None and base.wall_force is None:
                raise ValueError(f"member {i} sets wall_amplitude but the base config "
                                 f"has no wall_force spec")
            if params.scenario is None:
                continue
            if base.scenario is None:
                raise ValueError(f"member {i} sets a scenario but the base config has none")
            if params.scenario.geometry_signature() != base.scenario.geometry_signature():
                raise ValueError(f"member {i}'s scenario reshapes the solid walls differently "
                                 f"from the base scenario; a batch shares one stacked solid mask")
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        return len(self.members)

    def member_config(self, i: int) -> LBMConfig:
        """The standalone :class:`LBMConfig` of member *i* — the single
        source of truth both the batched engine and differential
        cross-checks build from."""
        params = self.members[i]
        updates: dict = {}
        if params.g_matrix is not None:
            updates["g_matrix"] = np.asarray(params.g_matrix, dtype=np.float64)
        if params.wall_amplitude is not None:
            updates["wall_force"] = dataclasses.replace(
                self.base.wall_force, amplitude=float(params.wall_amplitude)
            )
        if params.body_acceleration is not None:
            updates["body_acceleration"] = tuple(params.body_acceleration)
        if params.scenario is not None:
            updates["scenario"] = params.scenario
        if not updates:
            return self.base
        return self.base.replace(**updates)


@dataclass
class MemberResult:
    """Final state of one ensemble member (``repr()``: the scalar fields);
    ``u`` is its mixture velocity, ``self.solver().velocity()`` bit for bit."""

    index: int
    config: LBMConfig = field(repr=False)
    params: MemberParams = field(repr=False)
    f: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    steps: int
    converged: bool
    residual: float | None

    def solver(self) -> MulticomponentLBM:
        """A full solver at this member's final state (derived fields
        recomputed exactly as after an uninterrupted run)."""
        return MulticomponentLBM(self.config, state=(self.f, self.steps))


@dataclass
class EnsembleResult:
    """All member results plus aggregate throughput accounting."""

    spec: EnsembleSpec
    members: tuple[MemberResult, ...]
    elapsed_s: float
    #: Total member-steps advanced (each step of a width-B pass counts B).
    member_steps: int
    metrics: dict = field(default_factory=dict)

    @property
    def us_per_point(self) -> float:
        """Aggregate cost per lattice point per member step."""
        points = self.member_steps * int(np.prod(self.spec.base.geometry.shape))
        return self.elapsed_s / max(points, 1) * 1e6


class BatchedEnsemble:
    """The stacked-ensemble engine (construct once, :meth:`run` once).

    State arrays carry the batch axis over the *active* members in front
    of the grid: ``f (C, Q, B, *S)``, ``rho (C, B, *S)``,
    ``mom/force/u_eq (C, D, B, *S)``, plus the stacked per-member
    acceleration field.  ``self._active`` maps batch row -> original
    member index and shrinks as members converge and the batch is
    repacked.
    """

    def __init__(self, spec: EnsembleSpec, observer: ObserverLike = NULL_OBSERVER):
        self.spec = spec
        self.observer = resolve_observer(observer)
        base = spec.base
        lat = base.lattice
        geo = base.geometry
        stacked = (spec.size,) + geo.shape
        C, D, Q = base.n_components, lat.D, lat.Q

        # One mask for the whole batch (EnsembleSpec checked that every
        # member's scenario shapes the walls as the base's does).
        self.solid = solid_mask_field(base, geo)
        self.fluid = ~self.solid

        # Stacked per-member coefficient fields, built from the same
        # member_config the standalone solver would see (and the member
        # results carry).
        self._configs = [spec.member_config(b) for b in range(spec.size)]
        self._accel = np.empty((C, D) + stacked, dtype=np.float64)
        self._g_matrices = np.empty((spec.size, C, C), dtype=np.float64)
        for b, cfg in enumerate(self._configs):
            self._g_matrices[b] = cfg.g_matrix
            self._accel[:, :, b] = acceleration_field(cfg, geo)

        # Member state, initialised exactly as MulticomponentLBM.__init__:
        # rest equilibrium on fluid nodes, zero inside the solid.
        self.f = np.empty((C, Q) + stacked, dtype=np.float64)
        for ci, comp in enumerate(base.components):
            rho_init = np.where(self.fluid, comp.rho_init / comp.mass, 0.0)
            rest_equilibrium(np.broadcast_to(rho_init, stacked), lat, out=self.f[ci])
        self.rho = np.zeros((C,) + stacked, dtype=np.float64)
        self.mom = np.zeros((C, D) + stacked, dtype=np.float64)
        self.force = np.zeros_like(self.mom)
        self.u_eq = np.zeros_like(self.mom)

        self._active = list(range(spec.size))
        self._build_backend()
        self.step_count = 0
        self._update_moments_and_forces()

    # ------------------------------------------------------------ plumbing
    def _build_backend(self) -> None:
        """The kernels, and the fluid mask they take, for the active rows."""
        stacked = (len(self._active),) + self.solid.shape
        fluid = np.broadcast_to(self.fluid, stacked)
        self._fluid_f = np.ascontiguousarray(fluid, dtype=np.float64)
        solid = np.broadcast_to(self.solid, stacked)
        self.backend = FusedBackend(self.spec.base, stacked, solid, g_matrices=self._g_matrices)
        if self.observer.enabled:
            from repro.lbm.backends.instrumented import InstrumentedBackend

            self.backend = InstrumentedBackend(self.backend, self.observer)

    def _update_moments_and_forces(self) -> None:
        self.backend.moments(self.f, self.rho, self.mom)
        self.backend.forces_and_velocities(
            self.rho, self.mom, self.force, self.u_eq,
            accel=self._accel, psi_mask=self._fluid_f, vel_mask=self._fluid_f,
        )

    def step(self) -> int:
        """One LBM phase for every active member — the batched mirror of
        ``MulticomponentLBM._step_once``; returns the step count."""
        self.backend.collide_bgk(self.f, self.rho, self.u_eq, self._fluid_f)
        self.f = self.backend.stream(self.f)
        self.backend.bounce_back(self.f)
        self._update_moments_and_forces()
        self.step_count += 1
        return self.step_count

    def _repack(self, keep_rows: list[int]) -> None:
        """Shrink the batch to *keep_rows* (batch-row indices).  Kernel
        arithmetic is batch-width independent, so survivors continue
        bit-identically in the narrower pass."""
        self._active = [self._active[r] for r in keep_rows]
        self.f = np.take(self.f, keep_rows, axis=2)
        self.rho = np.take(self.rho, keep_rows, axis=1)
        self.mom = np.take(self.mom, keep_rows, axis=2)
        self.force = np.take(self.force, keep_rows, axis=2)
        self.u_eq = np.take(self.u_eq, keep_rows, axis=2)
        self._accel = np.take(self._accel, keep_rows, axis=2)
        self._g_matrices = self._g_matrices[keep_rows]
        self._build_backend()

    # ----------------------------------------------------------------- run
    def run(self, n_steps: int) -> EnsembleResult:
        """Advance up to *n_steps* phases under the spec's stop rule."""
        obs = self.observer
        spec = self.spec
        results: list = [None] * spec.size

        def finish(member: int, u: np.ndarray, converged: bool) -> None:
            row = self._active.index(member)
            results[member] = MemberResult(
                index=member,
                config=self._configs[member],
                params=spec.members[member],
                f=self.f[:, :, row].copy(),
                u=u[:, row].copy(),
                steps=self.step_count,
                converged=converged,
                residual=loop.residuals.get(member),
            )

        def probe() -> tuple[np.ndarray, dict]:
            u = mixture_velocity(self.rho, self.mom, self.force)
            return u, {m: (u[:, r], self.fluid) for r, m in enumerate(self._active)}

        def retire(members: list[int], u: np.ndarray) -> None:
            for member in members:
                finish(member, u, converged=True)
                if obs.enabled:
                    obs.emit("ensemble.member_converged", member=member,
                             step=self.step_count, residual=loop.residuals[member])
            keep = [r for r, m in enumerate(self._active) if results[m] is None]
            if keep:
                self._repack(keep)
            else:
                self._active = []

        loop = StepLoop(spec.check_every, spec.tol)
        start, first = time.perf_counter(), self.step_count
        u_end = loop.run(n_steps, first, self.step, probe, retire=retire)
        elapsed = time.perf_counter() - start
        for member in list(self._active):  # still running at the cap
            finish(member, u_end, converged=False)
        members = tuple(results)
        member_steps = sum(m.steps - first for m in members)
        result = EnsembleResult(spec, members, elapsed, member_steps)
        if obs.enabled:
            obs.emit(
                "ensemble.run",
                members=spec.size,
                steps=self.step_count,
                member_steps=member_steps,
                converged=sum(m.converged for m in members),
                us_per_point=result.us_per_point,
                per_member_steps=[m.steps for m in members],
            )
            obs.emit_metrics()
            result.metrics = {
                "ensemble.us_per_point": result.us_per_point,
                "ensemble.member_steps": member_steps,
            }
        return result


def run_ensemble(
    spec: EnsembleSpec, n_steps: int, *, observer: ObserverLike = NULL_OBSERVER
) -> EnsembleResult:
    """Construct a :class:`BatchedEnsemble` for *spec* and run it."""
    return BatchedEnsemble(spec, observer=observer).run(n_steps)
