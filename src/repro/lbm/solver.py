"""The single-process multicomponent LBM solver.

One :meth:`MulticomponentLBM.step` performs the computational phase of the
paper's Figure 2 pseudocode (lines 4-17):

1. collision of every component toward its forced equilibrium (using the
   velocity computed at the end of the previous phase),
2. streaming,
3. bounce-back at the solid walls,
4. moment update (densities and momenta),
5. interparticle (Shan-Chen) + hydrophobic wall + body forces,
6. common velocity and per-component equilibrium velocities for the next
   collision.

The parallel driver in :mod:`repro.parallel.driver` runs the same sequence
on x-slabs, inserting halo exchanges where the pseudocode has its two
communication points.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.lbm.backends import create_backend, resolve_backend_name
from repro.lbm.components import ComponentSpec
from repro.lbm.equilibrium import equilibrium, rest_equilibrium
from repro.lbm.forces import (
    WallForceSpec,
    acceleration_field,
    solid_mask_field,
)
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import Lattice, D3Q19
from repro.lbm.loop import NumericalInstability, StepLoop, health_verdict
from repro.lbm.macroscopic import mixture_velocity
from repro.lbm.shan_chen import validate_g_matrix
from repro.obs.observer import NULL_OBSERVER, ObserverLike, resolve_observer

if TYPE_CHECKING:  # repro.scenarios imports repro.lbm; never the reverse
    from repro.scenarios.base import Scenario


@dataclass(frozen=True)
class LBMConfig:
    """Full configuration of a multicomponent LBM run.

    Attributes
    ----------
    geometry:
        Channel geometry (grid shape, wall axes).
    components:
        One :class:`ComponentSpec` per fluid component.
    g_matrix:
        Symmetric S-C coupling matrix, shape ``(C, C)``.  A positive
        off-diagonal entry makes the components mutually repulsive
        (immiscible), as in the paper's water/air system.
    lattice:
        Velocity set; must match the geometry dimension.
    wall_force:
        Optional hydrophobic wall force applied (as an acceleration) to the
        named component.  ``None`` disables it (the paper's "no wall
        forces" control in Figure 7).
    body_acceleration:
        Uniform driving acceleration (pressure-gradient surrogate), applied
        to every component; typically along +x.
    adhesion:
        Optional Shan-Chen wall-adhesion couplings, one per component
        (``g_ads > 0`` repels from the walls, ``< 0`` wets them) — the
        standard S-C wettability mechanism, as an alternative to the
        paper's explicit ``wall_force`` (see :mod:`repro.lbm.adhesion`).
    scenario:
        Optional pluggable wall physics (see :mod:`repro.scenarios`):
        supplies the solid mask and the per-site wall acceleration for
        its target component.  Mutually exclusive with ``wall_force`` —
        the ``homogeneous`` scenario reproduces that path bit-for-bit.
    backend:
        Kernel-backend name, ``"fused"`` or ``"reference"`` (see
        :mod:`repro.lbm.backends`); anything else raises ``ValueError``.
        ``None`` (default) consults the ``REPRO_LBM_BACKEND`` environment
        variable and falls back to ``"fused"``; the resolved name is
        stored, so parallel ranks built from the same config always agree
        on the backend.  The two are within 1e-12 of each other, not the
        same bits, so the name is part of a run's identity
        (:func:`repro.api.spec_fingerprint`).
    """

    geometry: ChannelGeometry
    components: tuple[ComponentSpec, ...]
    g_matrix: np.ndarray
    lattice: Lattice = D3Q19
    wall_force: WallForceSpec | None = None
    body_acceleration: tuple[float, ...] | None = None
    adhesion: tuple[float, ...] | None = None
    scenario: "Scenario | None" = None
    backend: str | None = None

    def __post_init__(self) -> None:
        self._check(None)

    def replace(self, **changes) -> "LBMConfig":
        """``dataclasses.replace(self, **changes)`` that re-checks only
        what *changes* can break: every check that reads none of the
        changed fields held when this config was built and still holds.
        The ensemble derives one config per member and a sweep one per
        sample this way, without re-validating what they inherit."""
        unknown = set(changes) - set(_CONFIG_FIELDS)
        if unknown:
            raise TypeError(f"LBMConfig has no fields {sorted(unknown)}")
        new = object.__new__(LBMConfig)
        new.__dict__.update(self.__dict__)
        new.__dict__.update(changes)
        new._check(frozenset(changes))
        return new

    def _check(self, changed: frozenset[str] | None) -> None:
        """Validate and normalise the fields; with *changed* set, only
        the checks that read one of those fields run."""

        def reads(*fields: str) -> bool:
            return changed is None or not changed.isdisjoint(fields)

        if reads("lattice", "geometry") and self.lattice.D != self.geometry.ndim:
            raise ValueError(
                f"lattice {self.lattice.name} is {self.lattice.D}-D but the "
                f"geometry is {self.geometry.ndim}-D"
            )
        names = [c.name for c in self.components]
        if reads("components"):
            if not self.components:
                raise ValueError("at least one component is required")
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate component names: {names}")
        if reads("g_matrix", "components"):
            # A read-only view of a private read-only copy: nobody can
            # write the coupling of a config (or a fingerprint of it)
            # after the fact, nor switch writing back on.
            g = np.array(
                validate_g_matrix(np.asarray(self.g_matrix), len(names)),
                dtype=np.float64,
            )
            g.flags.writeable = False
            object.__setattr__(self, "g_matrix", g.view())
        if (
            reads("wall_force", "components")
            and self.wall_force is not None
            and self.wall_force.component not in names
        ):
            raise ValueError(
                f"wall force targets unknown component "
                f"{self.wall_force.component!r}; have {names}"
            )
        if reads("body_acceleration", "geometry") and self.body_acceleration is not None:
            acc = tuple(float(a) for a in self.body_acceleration)
            if len(acc) != self.geometry.ndim:
                raise ValueError(f"body_acceleration must have {self.geometry.ndim} entries")
            object.__setattr__(self, "body_acceleration", acc)
        if reads("adhesion", "components") and self.adhesion is not None:
            adh = tuple(float(a) for a in self.adhesion)
            if len(adh) != len(self.components):
                raise ValueError(
                    f"adhesion needs one coupling per component "
                    f"({len(self.components)}), got {len(adh)}"
                )
            object.__setattr__(self, "adhesion", adh)
        if reads("scenario", "wall_force", "components") and self.scenario is not None:
            if self.wall_force is not None:
                raise ValueError(
                    "pass either wall_force or scenario, not both — the "
                    "scenario owns the wall physics"
                )
            if self.scenario.component not in names:
                raise ValueError(
                    f"scenario targets unknown component "
                    f"{self.scenario.component!r}; have {names}"
                )
        if reads("backend"):
            object.__setattr__(self, "backend", resolve_backend_name(self.backend))

    @property
    def n_components(self) -> int:
        return len(self.components)

    def component_index(self, name: str) -> int:
        for i, c in enumerate(self.components):
            if c.name == name:
                return i
        raise KeyError(name)


_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(LBMConfig))


class MulticomponentLBM:
    """Single-process solver for the configured multicomponent system.

    State arrays (all float64):

    - ``f``:      populations, shape ``(C, Q, *S)``
    - ``rho``:    component densities, ``(C, *S)``
    - ``mom``:    component momenta, ``(C, D, *S)``
    - ``force``:  total force on each component, ``(C, D, *S)``
    - ``u_eq``:   per-component equilibrium velocities, ``(C, D, *S)``
    """

    def __init__(
        self,
        config: LBMConfig,
        observer: ObserverLike = NULL_OBSERVER,
        *,
        state: tuple[np.ndarray, int] | None = None,
    ):
        """*state* ``(f, step)`` starts the solver there, as
        :meth:`restore_state` would, without computing the rest state."""
        self.config = config
        #: Observability handle (:data:`repro.obs.NULL_OBSERVER` unless a
        #: real observer is passed or ``REPRO_OBS_TRACE`` is set); a
        #: disabled observer keeps the step loop untouched.
        self.observer = resolve_observer(observer)
        lat = config.lattice
        geo = config.geometry
        shape = geo.shape
        n_comp = config.n_components

        self.solid = solid_mask_field(config, geo)
        self.fluid = ~self.solid
        self._fluid_f = self.fluid.astype(np.float64)

        self.taus = np.array([c.tau for c in config.components])
        self.masses = np.array([c.mass for c in config.components])

        # Static acceleration fields (force per unit density), per component.
        self._accel = acceleration_field(config, geo)

        # Population arrays: uniform rest equilibrium on fluid nodes,
        # zero inside the solid (so total fluid mass is exactly conserved).
        self.f = np.empty((n_comp, lat.Q) + shape, dtype=np.float64)
        if state is None:
            for ci, comp in enumerate(config.components):
                rho_init = np.where(self.fluid, comp.rho_init / comp.mass, 0.0)
                rest_equilibrium(rho_init, lat, out=self.f[ci])

        self.rho = np.zeros((n_comp,) + shape, dtype=np.float64)
        self.mom = np.zeros((n_comp, lat.D) + shape, dtype=np.float64)
        self.force = np.zeros_like(self.mom)
        self.u_eq = np.zeros_like(self.mom)

        #: Kernel backend (owns the hot-loop scratch; see
        #: :mod:`repro.lbm.backends`).  With an enabled observer it is
        #: wrapped for per-kernel timing; disabled runs get the raw
        #: backend, so the hot path pays nothing.
        self.backend = create_backend(config, shape, self.solid, observer=self.observer)

        self._wall_field: np.ndarray | None = None
        if config.adhesion is not None:
            from repro.lbm.adhesion import wall_indicator_field

            self._wall_field = wall_indicator_field(geo, lat)

        self.step_count = 0
        if state is None:
            self.update_moments_and_forces()
        else:
            self.restore_state(*state)

    # ----------------------------------------------------------- (re)init
    def initialize_equilibrium(self, rhos: np.ndarray, u: np.ndarray) -> None:
        """Reset the populations to the equilibrium of the given
        macroscopic state (used for validation flows like the Taylor-Green
        vortex, and by checkpoint restore).

        Parameters
        ----------
        rhos:
            Component mass densities, shape ``(C, *S)``; zeroed at solid
            nodes internally.
        u:
            Shared initial velocity, shape ``(D, *S)``.
        """
        lat = self.config.lattice
        rhos = np.asarray(rhos, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        if rhos.shape != self.rho.shape:
            raise ValueError(f"rhos must have shape {self.rho.shape}")
        if u.shape != (lat.D,) + self.config.geometry.shape:
            raise ValueError(f"u must have shape {(lat.D,) + self.config.geometry.shape}")
        for ci, comp in enumerate(self.config.components):
            n = np.where(self.fluid, rhos[ci] / comp.mass, 0.0)
            equilibrium(n, u * self._fluid_f, lat, out=self.f[ci])
        self.step_count = 0
        self.update_moments_and_forces()

    def restore_state(self, f: np.ndarray, step: int) -> None:
        """Adopt checkpointed populations and step counter.

        All derived fields (densities, momenta, forces, equilibrium
        velocities) are recomputed from *f*, exactly as at the end of a
        phase — so the next :meth:`step` continues bit-identically to a
        run that was never interrupted (see :mod:`repro.ckpt`).
        """
        f = np.asarray(f, dtype=np.float64)
        if f.shape != self.f.shape:
            raise ValueError(f"checkpointed f has shape {f.shape}, solver expects {self.f.shape}")
        step = int(step)
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        self.f = f.copy()
        self.step_count = step
        self.update_moments_and_forces()

    # ------------------------------------------------------------ energy
    def kinetic_energy(self) -> float:
        """Total kinetic energy ``sum rho |u|^2 / 2`` over fluid nodes."""
        u = self.velocity()
        rho = self.mixture_density()
        usq = np.einsum("d...,d...->...", u, u)
        return float(0.5 * (rho * usq)[self.fluid].sum())

    # ------------------------------------------------------------------ steps
    def step(self) -> None:
        """Advance one LBM phase (collision, streaming, walls, moments,
        forces, velocities)."""
        if self.observer.enabled:
            # Histogram-only span: per-step durations are summarized in
            # the metrics snapshot, not spelled out event-by-event.
            with self.observer.span("solver.step", emit=False):
                self._step_once()
        else:
            self._step_once()

    def _step_once(self) -> None:
        self.collide()
        self.stream_and_bounce()
        self.update_moments_and_forces()
        self.step_count += 1

    def run(
        self, n_steps: int, *, check_every: int = 0, tol: float = 0.0,
        callback: Callable[["MulticomponentLBM"], None] | None = None,
        checkpoint_every: int = 0, checkpoint_store=None,
    ) -> np.ndarray:
        """Run up to *n_steps* phases under the stop and health rules of
        :class:`~repro.lbm.loop.StepLoop`, calling *callback(self)* after
        each and saving to *checkpoint_store* whenever the absolute step
        is a multiple of *checkpoint_every* (the ``REPRO_CKPT_*``
        environment policy applies to :func:`repro.api.run`, not here).
        Returns the final mixture velocity."""

        def advance() -> int:
            self.step()
            if callback is not None:
                callback(self)
            return self.step_count

        def probe() -> tuple[np.ndarray, dict]:
            u = self.velocity()
            return u, {None: (u, self.fluid)}

        save = None if checkpoint_store is None else lambda: checkpoint_store.save_solver(self)
        return StepLoop(check_every, tol).run(
            n_steps, self.step_count, advance, probe,
            checkpoint_every=checkpoint_every, save=save,
        )

    def collide(self) -> None:
        """BGK-relax every component toward its forced equilibrium,
        restricted to fluid nodes."""
        self.backend.collide_bgk(self.f, self.rho, self.u_eq, self._fluid_f)

    def stream_and_bounce(self) -> None:
        """Streaming plus full-way bounce-back at the solid walls."""
        self.f = self.backend.stream(self.f)
        self.backend.bounce_back(self.f)

    def update_moments_and_forces(self) -> None:
        """Recompute densities, momenta, forces and equilibrium velocities
        from the current populations."""
        self.backend.moments(self.f, self.rho, self.mom)
        self.backend.forces_and_velocities(
            self.rho,
            self.mom,
            self.force,
            self.u_eq,
            accel=self._accel,
            psi_mask=self._fluid_f,  # neutral walls: psi = 0 inside the solid
            vel_mask=self._fluid_f,  # keep solid nodes at rest
            adhesion=self.config.adhesion if self._wall_field is not None else None,
            wall_field=self._wall_field,
        )

    # ------------------------------------------------------------ diagnostics
    def mixture_density(self) -> np.ndarray:
        """Total mass density, shape ``(*S,)``."""
        return self.rho.sum(axis=0)

    def velocity(self) -> np.ndarray:
        """Physical mixture velocity (with half-force correction),
        shape ``(D, *S)``."""
        return mixture_velocity(self.rho, self.mom, self.force)

    def total_mass(self, component: int | None = None) -> float:
        """Total mass of one component (or all) — conserved by the update."""
        if component is None:
            return float(self.rho.sum())
        return float(self.rho[component].sum())

    def check_health(self) -> None:
        """Raise :class:`~repro.lbm.loop.NumericalInstability` on an
        unhealthy state (:func:`~repro.lbm.loop.health_verdict`)."""
        verdict = health_verdict(self.velocity(), self.fluid, self.f)
        if verdict is not None:
            raise NumericalInstability(verdict, self.step_count)
