"""Kernel-backend abstraction and registry.

A :class:`KernelBackend` owns the *implementation* of the five LBM hot
kernels — streaming, equilibrium, collision (BGK), Shan-Chen force, and
the moment/force/velocity update — for one solver instance.  The physics
(update order, boundary handling, remapping) stays in
:class:`~repro.lbm.solver.MulticomponentLBM` and
:class:`~repro.parallel.driver.ParallelLBM`; backends only decide *how*
each kernel touches memory.

Two backends can be selected by name, and there is no third
arithmetic:

``fused``
    The default, and the one production arithmetic: everything that
    ships — sequential runs, parallel ranks, and the stacked ensembles of
    :mod:`repro.lbm.ensemble` (the same class over a leading batch axis)
    — runs on it.  Allocation-free, BLAS-driven hot path: in-place
    flat-offset streaming, equilibrium and moments as one dgemm per
    column block, and the separable Shan-Chen stencil over a
    preallocated scratch pool; every kernel gives a piece of the grid —
    an x-slab, an ensemble member — the bits the whole-grid call gives
    (see :mod:`repro.lbm.backends.fused`).

``reference``
    The original NumPy kernels, unchanged — per-component loops,
    ``np.roll`` streaming, fresh temporaries.  Always correct, easy to
    read, and the oracle every differential test compares ``fused``
    against: the two stay within 1e-12 of each other — close, not the
    same bits.  Nothing ships on it; a spec that names it runs alone.

Selection: ``LBMConfig(backend="reference")`` explicitly, or the
``REPRO_LBM_BACKEND`` environment variable as the default for configs
that do not name a backend.  All validation (g-matrix symmetry, shape
checks) happens at configuration/construction time, never per step:
``LBMConfig.__post_init__`` validates the coupling matrix and resolves
the backend name once, so :func:`create_backend` and the
:class:`KernelBackend` constructor trust the config — the ensemble
engine can rebuild backends inside a sweep without re-paying
validation or environment reads.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.config import ENV_BACKEND, from_env
from repro.lbm.lattice import Lattice
from repro.obs.observer import NULL_OBSERVER, ObserverLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (solver imports us)
    from repro.lbm.solver import LBMConfig

#: Environment variable consulted when a config does not name a backend.
#: Parsed by :mod:`repro.config`; re-exported here for compatibility.
BACKEND_ENV_VAR = ENV_BACKEND

#: Fallback when neither the config nor the environment chooses.
DEFAULT_BACKEND = "fused"


def available_backends() -> list[str]:
    """Names of the selectable backends, sorted."""
    return sorted(_BACKENDS)


def resolve_backend_name(name: str | None = None) -> str:
    """Resolve an explicit/None backend name to a selectable one.

    Resolution order: explicit *name* -> ``$REPRO_LBM_BACKEND`` ->
    :data:`DEFAULT_BACKEND`.  Raises ``ValueError`` for unknown names so
    typos in either channel fail loudly at configuration time.
    """
    if name is None:
        name = from_env().backend or DEFAULT_BACKEND
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown LBM backend {name!r}; available: {available_backends()}"
        )
    return name


def get_backend_class(name: str | None = None) -> type["KernelBackend"]:
    """Look up a backend class by (resolved) name."""
    return _BACKENDS[resolve_backend_name(name)]


def create_backend(
    config: "LBMConfig",
    shape: tuple[int, ...],
    solid_mask: np.ndarray,
    observer: ObserverLike = NULL_OBSERVER,
    *,
    shares_interpreter: bool = False,
) -> "KernelBackend":
    """Instantiate the backend the config selects, for a (local) grid.

    Parameters
    ----------
    config:
        The run configuration; supplies the lattice, component taus and
        masses and the coupling matrix.
    shape:
        *Local* spatial grid shape — the full channel for the sequential
        solver, the slab (with ghost planes) for a parallel rank.  Scratch
        buffers are sized for it, so parallel ranks rebuild their backend
        after plane migration.
    solid_mask:
        Boolean solid-node field of that shape (bounce-back support).
    observer:
        :class:`repro.obs.Observer` or the default
        :data:`~repro.obs.NULL_OBSERVER`.  When enabled, the backend is
        wrapped in an :class:`~repro.lbm.backends.instrumented.
        InstrumentedBackend` that times every kernel call; when disabled
        the raw backend is returned and the hot path is untouched.
    shares_interpreter:
        The caller shares its GIL with other ranks (a thread rank):
        ``fused`` keeps wide column blocks (its module docstring, item 5).
    """
    # Configs built through LBMConfig.__post_init__ carry a resolved
    # name: no environment read (get_backend_class's) on the fast path.
    name = getattr(config, "backend", None)
    cls = _BACKENDS.get(name) or get_backend_class(name)
    # Only fused has column blocks; the reference oracle takes no option.
    options = {"shares_interpreter": shares_interpreter} if cls is FusedBackend else {}
    backend = cls(config, shape, solid_mask, **options)
    if observer is not None and observer.enabled:
        from repro.lbm.backends.instrumented import InstrumentedBackend

        return InstrumentedBackend(backend, observer)
    return backend


class KernelBackend(abc.ABC):
    """The five hot kernels of one LBM solver instance.

    Array-shape conventions (C components, Q directions, S spatial grid):

    - populations ``f``: ``(C, Q, *S)``
    - densities ``rho``: ``(C, *S)``, momenta/forces/velocities:
      ``(C, D, *S)``
    - masks are float64 fields of shape broadcastable to ``(*S,)``
      (1.0 on active nodes, 0.0 elsewhere)

    Construction performs **all** validation; per-step methods assume
    well-shaped inputs.
    """

    #: Label in ``kernel.<name>.*`` metrics, and for the two selectable
    #: backends the key of the table at the end of this module;
    #: subclasses must override.
    name: ClassVar[str] = ""

    def __init__(
        self,
        config: "LBMConfig",
        shape: tuple[int, ...],
        solid_mask: np.ndarray,
        *,
        batch_axes: int = 0,
    ):
        """*batch_axes* leading axes of *shape* are not lattice axes:
        nothing streams along them (``fused`` takes the ensemble's one)."""
        lat: Lattice = config.lattice
        if len(shape) != batch_axes + lat.D:
            raise ValueError(
                f"shape {shape} is {len(shape) - batch_axes}-D but lattice "
                f"{lat.name} is {lat.D}-D"
            )
        solid_mask = np.asarray(solid_mask, dtype=bool)
        if solid_mask.shape != tuple(shape):
            raise ValueError(
                f"solid_mask shape {solid_mask.shape} != grid shape {shape}"
            )
        self.lattice = lat
        self.shape = tuple(shape)
        self.n_points = int(np.prod(shape))
        self.solid_mask = solid_mask
        self.n_components = config.n_components
        self.taus = np.array([c.tau for c in config.components], dtype=np.float64)
        self.masses = np.array(
            [c.mass for c in config.components], dtype=np.float64
        )
        # Hoisted validation: ``LBMConfig.__post_init__`` already ran
        # ``validate_g_matrix`` when the config was built, so backend
        # (re)construction — per ensemble member, per migration rebuild —
        # does not re-pay the symmetry/shape checks.
        self.g_matrix = np.asarray(config.g_matrix, dtype=np.float64)

    # ------------------------------------------------------------- kernels
    @abc.abstractmethod
    def stream(self, f: np.ndarray) -> np.ndarray:
        """Periodic streaming of all components.

        May operate in place *or* return a different (backend-owned)
        buffer; callers must rebind: ``self.f = backend.stream(self.f)``.
        """

    @abc.abstractmethod
    def bounce_back(self, f: np.ndarray) -> None:
        """Full-way bounce-back at the construction-time solid nodes,
        in place, for all components."""

    @abc.abstractmethod
    def equilibrium(
        self, rho_n: np.ndarray, u: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Equilibrium populations for one number-density field
        (``(*S,)``) and velocity field (``(D, *S)``) -> ``(Q, *S)``."""

    @abc.abstractmethod
    def collide_bgk(
        self,
        f: np.ndarray,
        rho: np.ndarray,
        u_eq: np.ndarray,
        mask: np.ndarray,
    ) -> None:
        """BGK collision of every component toward its forced equilibrium,
        in place, restricted to ``mask`` nodes."""

    @abc.abstractmethod
    def shan_chen_force(
        self, psis: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Shan-Chen interparticle force from pseudopotentials ``(C, *S)``
        -> ``(C, D, *S)`` using the construction-time g matrix."""

    @abc.abstractmethod
    def moments(
        self, f: np.ndarray, rho_out: np.ndarray, mom_out: np.ndarray
    ) -> None:
        """Densities and momenta of all components, written into the given
        output arrays."""

    @abc.abstractmethod
    def forces_and_velocities(
        self,
        rho: np.ndarray,
        mom: np.ndarray,
        force: np.ndarray,
        u_eq: np.ndarray,
        *,
        accel: np.ndarray,
        psi_mask: np.ndarray,
        vel_mask: np.ndarray,
        adhesion: tuple[float, ...] | None = None,
        wall_field: np.ndarray | None = None,
    ) -> np.ndarray:
        """The force + velocity half of the moment update.

        Computes pseudopotentials (masked by *psi_mask*), the S-C force,
        adds the static acceleration field ``accel * rho``, optionally the
        S-C wall-adhesion term, then the common velocity and every
        component's forced equilibrium velocity (masked by *vel_mask*).
        Writes ``force`` and ``u_eq`` in place and returns the psi fields
        (shape ``(C, *S)``) for diagnostics / adhesion bookkeeping.
        """


# The table of selectable backends.  It sits below the ABC because both
# implementation modules import :class:`KernelBackend` from here.
from repro.lbm.backends.fused import FusedBackend  # noqa: E402
from repro.lbm.backends.reference import ReferenceBackend  # noqa: E402

_BACKENDS: dict[str, type[KernelBackend]] = {
    "fused": FusedBackend,
    "reference": ReferenceBackend,
}
