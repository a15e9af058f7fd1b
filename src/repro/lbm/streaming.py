"""Streaming (propagation) step.

Each population f_k moves one lattice link along its velocity c_k:
``f_k(x + c_k, t + 1) = f_k(x, t)``.  On a periodic box this is exactly
``numpy.roll`` along each axis; solid walls are handled afterwards by
bounce-back, and slab decomposition handles the x-wraparound through ghost
planes instead (see :mod:`repro.parallel.halo`).
"""

from __future__ import annotations

import numpy as np

from repro.lbm.lattice import Lattice


def stream(f: np.ndarray, lattice: Lattice) -> None:
    """Periodic streaming of all populations, in place.

    *f* has shape ``(Q, *S)`` with ``len(S) == lattice.D``.
    """
    if f.ndim != 1 + lattice.D:
        raise ValueError(
            f"f must have {1 + lattice.D} dims (Q + spatial), got shape {f.shape}"
        )
    spatial_axes = tuple(range(lattice.D))
    for k in lattice.moving:
        f[k] = np.roll(f[k], lattice.shifts[k], axis=spatial_axes)
