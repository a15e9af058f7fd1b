"""Per-kernel timing instrumentation for any kernel backend.

:class:`InstrumentedBackend` wraps a concrete backend (``reference``
or ``fused``, the ensemble's stacked one included) and times every
hot-kernel call into the observer's metrics registry, without the
backends themselves knowing about observability:

- ``kernel.<backend>.<kernel>`` — duration histogram (per call), whose
  harmonic mean mirrors the remapper's load-index filter;
- ``kernel.<backend>.<kernel>.points`` — counter of lattice points
  processed, so ``total / points`` yields the µs/point unit of the
  report CLI's kernel table (and of the benchmark's ``lbm.*_us_per_pt``).

The wrapper is only ever constructed for an *enabled* observer (see
:func:`repro.lbm.backends.registry.create_backend`); a disabled run gets
the raw backend and pays nothing.
"""

from __future__ import annotations

import time

import numpy as np

from repro.lbm.backends.registry import KernelBackend

#: The hot kernels the wrapper times (method names of the backend ABC).
KERNEL_NAMES = (
    "stream",
    "bounce_back",
    "equilibrium",
    "collide_bgk",
    "shan_chen_force",
    "moments",
    "forces_and_velocities",
)


class InstrumentedBackend:
    """Duck-typed :class:`KernelBackend` proxy adding per-kernel timing.

    Exposes the wrapped backend's attributes (lattice, shape, masks, …)
    so diagnostics that poke at backend internals keep working; only the
    kernel methods are intercepted.
    """

    def __init__(self, inner: KernelBackend, observer) -> None:
        if not observer.enabled:
            raise ValueError(
                "InstrumentedBackend requires an enabled observer; "
                "disabled runs should use the raw backend"
            )
        self.inner = inner
        self.observer = observer
        prefix = f"kernel.{inner.name}"
        # Pre-resolve instruments so per-call overhead is two lookups.
        self._hists = {
            k: observer.histogram(f"{prefix}.{k}") for k in KERNEL_NAMES
        }
        self._points = {
            k: observer.counter(f"{prefix}.{k}.points") for k in KERNEL_NAMES
        }

    @property
    def name(self) -> str:
        return self.inner.name

    def __getattr__(self, attr: str):
        return getattr(self.inner, attr)

    def _timed(self, kernel: str, points: int, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self._hists[kernel].observe(time.perf_counter() - t0)
        self._points[kernel].add(points)
        return result

    # ------------------------------------------------------------- kernels
    # Points per call come from the call's own arrays, not the backend's
    # construction shape: the parallel driver hands the rank's backend
    # x-slab pieces (``moments``), and every kernel counts once per
    # component field it sweeps (the equilibrium sweeps one).
    def stream(self, f: np.ndarray) -> np.ndarray:
        return self._timed("stream", f[:, 0].size, self.inner.stream, f)

    def bounce_back(self, f: np.ndarray) -> None:
        return self._timed("bounce_back", f[:, 0].size, self.inner.bounce_back, f)

    def equilibrium(self, rho_n, u, out=None):
        return self._timed("equilibrium", rho_n.size, self.inner.equilibrium, rho_n, u, out)

    def collide_bgk(self, f, rho, u_eq, mask) -> None:
        return self._timed("collide_bgk", rho.size, self.inner.collide_bgk, f, rho, u_eq, mask)

    def shan_chen_force(self, psis, out=None):
        return self._timed("shan_chen_force", psis.size, self.inner.shan_chen_force, psis, out)

    def moments(self, f, rho_out, mom_out) -> None:
        return self._timed("moments", rho_out.size, self.inner.moments, f, rho_out, mom_out)

    def forces_and_velocities(self, rho, mom, force, u_eq, **kwargs):
        return self._timed(
            "forces_and_velocities", rho.size,
            self.inner.forces_and_velocities, rho, mom, force, u_eq, **kwargs,
        )
