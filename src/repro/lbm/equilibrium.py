"""Second-order Maxwell-Boltzmann equilibrium distribution.

``feq_k(rho, u) = w_k * rho * (1 + c.u/cs2 + (c.u)^2/(2 cs4) - u^2/(2 cs2))``

which for cs2 = 1/3 is the familiar ``w rho (1 + 3 cu + 4.5 (cu)^2 - 1.5 u^2)``.
"""

from __future__ import annotations

import numpy as np

from repro.lbm.lattice import Lattice


def equilibrium(
    rho: np.ndarray,
    u: np.ndarray,
    lattice: Lattice,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Compute the equilibrium populations.

    Parameters
    ----------
    rho:
        Density field, shape ``(*S,)`` where S is the spatial grid shape.
    u:
        Velocity field, shape ``(D, *S)``.
    lattice:
        Velocity-set descriptor.
    out:
        Optional preallocated output of shape ``(Q, *S)``; reused to avoid
        per-step allocation in the solver hot loop.

    Returns
    -------
    feq of shape ``(Q, *S)``.
    """
    if u.shape[0] != lattice.D:
        raise ValueError(
            f"u has leading dimension {u.shape[0]}, lattice is {lattice.D}-D"
        )
    if u.shape[1:] != rho.shape:
        raise ValueError(
            f"u spatial shape {u.shape[1:]} != rho shape {rho.shape}"
        )
    inv_cs2 = 1.0 / lattice.cs2
    # cu[k] = c_k . u  -> shape (Q, *S)
    cu = np.tensordot(lattice.cf, u, axes=([1], [0]))
    usq = np.einsum("d...,d...->...", u, u)

    if out is None:
        out = np.empty((lattice.Q,) + rho.shape, dtype=np.float64)
    elif out.shape != (lattice.Q,) + rho.shape:
        raise ValueError(
            f"out has shape {out.shape}, expected {(lattice.Q,) + rho.shape}"
        )

    # out = 1 + cu/cs2 + cu^2/(2 cs4) - u^2/(2 cs2), built in place.
    np.multiply(cu, cu, out=out)
    out *= 0.5 * inv_cs2 * inv_cs2
    out += cu * inv_cs2
    out += 1.0
    out -= (0.5 * inv_cs2) * usq  # broadcasts over Q
    out *= rho  # broadcasts over Q
    out *= lattice.w.reshape((lattice.Q,) + (1,) * rho.ndim)
    return out


def rest_equilibrium(
    rho: np.ndarray, lattice: Lattice, out: np.ndarray
) -> np.ndarray:
    """Equilibrium of a fluid at rest, ``out[k] = w_k * rho`` — bit-equal
    to ``equilibrium(rho, 0, lattice)`` (whose velocity terms are exact
    zeros) without its ``(Q, *S)`` temporaries; the initial state of
    every solver."""
    if out.shape != (lattice.Q,) + rho.shape:
        raise ValueError(
            f"out has shape {out.shape}, expected {(lattice.Q,) + rho.shape}"
        )
    np.multiply(lattice.w.reshape((lattice.Q,) + (1,) * rho.ndim), rho, out=out)
    return out
