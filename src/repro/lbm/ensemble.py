"""Batched ensembles: many microchannel runs as one stacked array pass.

The paper's parameter studies — slip length versus wall-interaction
strength ``a``, versus driving force, versus coupling ``g`` — are
embarrassingly parallel: the same channel, the same lattice, different
scalar knobs.  Running them one solver at a time pays the full
Python/NumPy kernel dispatch cost per member per step.  This module
stacks B such members on the grid ``(B, *S)`` — state ``(C, Q, B, *S)``
— and advances them with one :class:`~repro.lbm.backends.fused.
FusedBackend` whose leading axis nothing streams along: the ``fused``
arithmetic, one sequence of array passes per step, so the dispatch cost
is amortised across the batch (the intra-node analogue of the paper's
cluster-level scaling study).

Bitwise contract: member ``b`` of a batched run is **exactly** the
standalone ``fused`` run of ``spec.member_config(b)`` — same initial
populations, same step arithmetic (``fused`` kernels give a piece of
the grid the bits of the whole), same convergence snapshots.
:class:`EnsembleSpec.member_config` is the single source of truth for
per-member configurations: both the engine (stacked coefficients) and
any standalone cross-check build from it.

Ragged convergence: with a tolerance set, the engine samples each
member's mixture velocity every ``check_every`` steps, snapshots and
retires members whose residual dropped below the tolerance, and
**repacks** the surviving members into a smaller batch (all per-member
kernel arithmetic is batch-width independent, so repacking does not
perturb the remaining trajectories).  The pass thus narrows as members
converge instead of dragging finished simulations along.

Usage::

    spec = EnsembleSpec.wall_force_sweep(base_config, [0.05, 0.1, 0.2])
    result = run_ensemble(spec, n_steps=2000, check_every=50, tol=1e-9)
    for member in result.members:
        solver = member.solver()          # full solver at the final state

See :func:`repro.api.run_batch` for the spec-level facade.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.lbm.backends.fused import FusedBackend
from repro.lbm.equilibrium import rest_equilibrium
from repro.lbm.forces import acceleration_field, solid_mask_field
from repro.lbm.macroscopic import mixture_velocity
from repro.lbm.solver import LBMConfig, MulticomponentLBM
from repro.obs.observer import NULL_OBSERVER, ObserverLike, resolve_observer

if TYPE_CHECKING:  # repro.scenarios imports repro.lbm; never the reverse
    from repro.scenarios.base import Scenario


@dataclass(frozen=True)
class MemberParams:
    """Per-member scalar knobs of one ensemble member.

    Every field is optional; unset fields inherit the base config.

    Attributes
    ----------
    g_scale:
        Multiplier applied to the base Shan-Chen coupling matrix.
    g_matrix:
        Full replacement coupling matrix (wins over ``g_scale``).
    wall_amplitude:
        Replacement hydrophobic wall-force amplitude ``a`` (requires the
        base config to carry a ``wall_force`` spec).
    body_acceleration:
        Replacement driving body acceleration.
    scenario:
        Replacement wall-physics scenario (requires the base config to
        carry a scenario whose geometry signature matches — the batch
        shares one stacked solid mask; see :mod:`repro.scenarios`).
    """

    g_scale: float = 1.0
    g_matrix: np.ndarray | None = None
    wall_amplitude: float | None = None
    body_acceleration: tuple[float, ...] | None = None
    scenario: "Scenario | None" = None


@dataclass(frozen=True)
class EnsembleSpec:
    """A base configuration plus one :class:`MemberParams` per member."""

    base: LBMConfig
    members: tuple[MemberParams, ...]

    def __post_init__(self) -> None:
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
        for i, params in enumerate(members):
            if params.wall_amplitude is not None and self.base.wall_force is None:
                raise ValueError(
                    f"member {i} sets wall_amplitude but the base config "
                    f"has no wall_force spec"
                )
            if params.scenario is not None:
                if self.base.scenario is None:
                    raise ValueError(
                        f"member {i} sets a scenario but the base config "
                        f"has none"
                    )
                if (
                    params.scenario.geometry_signature()
                    != self.base.scenario.geometry_signature()
                ):
                    raise ValueError(
                        f"member {i}'s scenario reshapes the solid walls "
                        f"differently from the base scenario; a batch "
                        f"shares one stacked solid mask"
                    )
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
        elif params.g_scale != 1.0:
            updates["g_matrix"] = (
                np.asarray(self.base.g_matrix, dtype=np.float64)
                * params.g_scale
            )
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
        return dataclasses.replace(self.base, **updates)

    # ------------------------------------------------------------- sweeps
    @classmethod
    def wall_force_sweep(
        cls, base: LBMConfig, amplitudes: Sequence[float]
    ) -> "EnsembleSpec":
        """Sweep the hydrophobic wall-force amplitude ``a`` (the paper's
        slip-length control parameter, Figure 7)."""
        return cls(
            base=base,
            members=tuple(
                MemberParams(wall_amplitude=float(a)) for a in amplitudes
            ),
        )

    @classmethod
    def g_sweep(
        cls, base: LBMConfig, scales: Sequence[float]
    ) -> "EnsembleSpec":
        """Sweep the Shan-Chen coupling strength by scaling the base
        coupling matrix."""
        return cls(
            base=base,
            members=tuple(MemberParams(g_scale=float(s)) for s in scales),
        )


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
        points = self.member_steps * int(
            np.prod(self.spec.base.geometry.shape)
        )
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

    def __init__(
        self, spec: EnsembleSpec, observer: ObserverLike = NULL_OBSERVER
    ):
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
        # member_config the standalone solver would see.
        self._accel = np.empty((C, D) + stacked, dtype=np.float64)
        self._g_matrices = np.empty((spec.size, C, C), dtype=np.float64)
        for b in range(spec.size):
            cfg = spec.member_config(b)
            self._g_matrices[b] = cfg.g_matrix
            self._accel[:, :, b] = acceleration_field(cfg, geo)

        # Member state, initialised exactly as MulticomponentLBM.__init__:
        # rest equilibrium on fluid nodes, zero inside the solid.
        self.f = np.empty((C, Q) + stacked, dtype=np.float64)
        for ci, comp in enumerate(base.components):
            rho_init = np.where(self.fluid, comp.rho_init / comp.mass, 0.0)
            rest_equilibrium(
                np.broadcast_to(rho_init, stacked), lat, out=self.f[ci]
            )
        self.rho = np.zeros((C,) + stacked, dtype=np.float64)
        self.mom = np.zeros((C, D) + stacked, dtype=np.float64)
        self.force = np.zeros_like(self.mom)
        self.u_eq = np.zeros_like(self.mom)

        self._active = list(range(spec.size))
        self._build_backend()
        self.step_count = 0
        self.member_steps = 0
        self._update_moments_and_forces()

    # ------------------------------------------------------------ plumbing
    def _build_backend(self) -> None:
        """The kernels, and the fluid mask they take, for the active rows."""
        stacked = (self.active_size,) + self.solid.shape
        self._fluid_f = np.ascontiguousarray(
            np.broadcast_to(self.fluid, stacked), dtype=np.float64
        )
        self.backend = FusedBackend(
            self.spec.base,
            stacked,
            np.broadcast_to(self.solid, stacked),
            g_matrices=self._g_matrices,
        )
        if self.observer.enabled:
            from repro.lbm.backends.instrumented import InstrumentedBackend

            self.backend = InstrumentedBackend(self.backend, self.observer)

    @property
    def active_size(self) -> int:
        return len(self._active)

    def _update_moments_and_forces(self) -> None:
        self.backend.moments(self.f, self.rho, self.mom)
        self.backend.forces_and_velocities(
            self.rho,
            self.mom,
            self.force,
            self.u_eq,
            accel=self._accel,
            psi_mask=self._fluid_f,
            vel_mask=self._fluid_f,
        )

    def step(self) -> None:
        """One LBM phase for every active member (collide, stream,
        bounce-back, moments/forces) — the batched mirror of
        ``MulticomponentLBM._step_once``."""
        self.backend.collide_bgk(self.f, self.rho, self.u_eq, self._fluid_f)
        self.f = self.backend.stream(self.f)
        self.backend.bounce_back(self.f)
        self._update_moments_and_forces()
        self.step_count += 1
        self.member_steps += self.active_size

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
    def run(
        self,
        n_steps: int,
        *,
        check_every: int = 0,
        tol: float = 0.0,
    ) -> EnsembleResult:
        """Advance up to *n_steps* phases, retiring members early once
        their mixture-velocity residual drops below *tol* (checked every
        *check_every* steps; 0 disables convergence checks)."""
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        if check_every < 0:
            raise ValueError(f"check_every must be >= 0, got {check_every}")
        obs = self.observer
        spec = self.spec
        B = spec.size
        snapshots: list = [None] * B
        converged = [False] * B
        residuals: list[float | None] = [None] * B
        u_prev: np.ndarray | None = None
        active_gauge = obs.gauge("ensemble.active_members") if obs.enabled else None

        start = time.perf_counter()
        start_member_steps = self.member_steps
        for _ in range(n_steps):
            if not self._active:
                break
            self.step()
            if obs.enabled:
                obs.counter("ensemble.steps").add()
                obs.counter("ensemble.member_steps").add(self.active_size)
                if active_gauge is not None:
                    active_gauge.set(self.active_size)
            if check_every and self.step_count % check_every == 0:
                u_prev = self._convergence_pass(
                    u_prev, tol, snapshots, converged, residuals
                )
        elapsed = time.perf_counter() - start

        # Members still active at the step budget: snapshot as-is.
        u_end = mixture_velocity(self.rho, self.mom, self.force)
        for row, member in enumerate(self._active):
            snapshots[member] = self._snapshot(row, u_end)
        members = tuple(
            MemberResult(
                index=b,
                config=spec.member_config(b),
                params=spec.members[b],
                f=snapshots[b][0],
                u=snapshots[b][1],
                steps=snapshots[b][2],
                converged=converged[b],
                residual=residuals[b],
            )
            for b in range(B)
        )
        member_steps = self.member_steps - start_member_steps
        result = EnsembleResult(
            spec=spec,
            members=members,
            elapsed_s=elapsed,
            member_steps=member_steps,
        )
        if obs.enabled:
            obs.emit(
                "ensemble.run",
                members=B,
                steps=self.step_count,
                member_steps=member_steps,
                converged=sum(converged),
                us_per_point=result.us_per_point,
                per_member_steps=[m.steps for m in members],
            )
            obs.emit_metrics()
            result.metrics = {
                "ensemble.us_per_point": result.us_per_point,
                "ensemble.member_steps": member_steps,
            }
        return result

    def _snapshot(self, row: int, u: np.ndarray) -> tuple:
        """Batch *row*'s populations, its slice of the batch's mixture
        velocity *u*, and the step they stand at."""
        return self.f[:, :, row].copy(), u[:, row].copy(), self.step_count

    def _convergence_pass(
        self,
        u_prev: np.ndarray | None,
        tol: float,
        snapshots: list,
        converged: list,
        residuals: list,
    ) -> np.ndarray:
        """Sample per-member mixture velocities, retire members whose
        residual fell below *tol*, repack the batch if any retired.
        Returns the new previous-velocity sample ``(D, B, *S)``, active
        rows only."""
        B = self.active_size
        u_now = mixture_velocity(self.rho, self.mom, self.force)
        keep: list[int] = []
        if u_prev is not None and u_prev.shape == u_now.shape:
            for row in range(B):
                member = self._active[row]
                res = float(np.max(np.abs(u_now[:, row] - u_prev[:, row])))
                residuals[member] = res
                if res < tol:
                    snapshots[member] = self._snapshot(row, u_now)
                    converged[member] = True
                    if self.observer.enabled:
                        self.observer.emit(
                            "ensemble.member_converged",
                            member=member,
                            step=self.step_count,
                            residual=res,
                        )
                else:
                    keep.append(row)
        else:
            keep = list(range(B))
        if len(keep) < B:
            if keep:
                self._repack(keep)
                u_now = u_now[:, keep]
            else:
                self._active = []
        return u_now


def run_ensemble(
    spec: EnsembleSpec,
    n_steps: int,
    *,
    check_every: int = 0,
    tol: float = 0.0,
    observer: ObserverLike = NULL_OBSERVER,
) -> EnsembleResult:
    """Construct a :class:`BatchedEnsemble` for *spec* and run it."""
    return BatchedEnsemble(spec, observer=observer).run(
        n_steps, check_every=check_every, tol=tol
    )
