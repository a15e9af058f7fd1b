"""Macroscopic moments of the distribution functions.

Connecting relations (paper, Section 2.1):

``rho_sigma(x) = m_sigma * sum_k f_k^sigma(x)``
``rho u      = sum_sigma m_sigma sum_k f_k^sigma c_k + (1/2) sum_sigma dp_sigma/dt``

and the common (composite) velocity used in the equilibrium of every
component,

``u' = (sum_sigma p_sigma / tau_sigma) / (sum_sigma rho_sigma / tau_sigma)``,

with each component's forced equilibrium velocity

``u_sigma^eq = u' + tau_sigma * F_sigma / rho_sigma``.
"""

from __future__ import annotations

import numpy as np

from repro.lbm.lattice import Lattice


def component_density(f: np.ndarray, mass: float = 1.0) -> np.ndarray:
    """Mass density of one component: ``m * sum_k f_k``; *f* is ``(Q, *S)``."""
    return mass * f.sum(axis=0)


def component_momentum(
    f: np.ndarray, lattice: Lattice, mass: float = 1.0
) -> np.ndarray:
    """Momentum density ``m * sum_k f_k c_k`` of shape ``(D, *S)``."""
    # tensordot over the Q axis: c.T (D, Q) x f (Q, *S) -> (D, *S)
    return mass * np.tensordot(lattice.cf.T, f, axes=([1], [0]))


def common_velocity(
    rhos: np.ndarray,
    momenta: np.ndarray,
    taus: np.ndarray,
    *,
    floor: float = 1e-300,
) -> np.ndarray:
    """The S-C composite velocity u'.

    Parameters
    ----------
    rhos:
        Component densities, shape ``(C, *S)``.
    momenta:
        Component momenta, shape ``(C, D, *S)``.
    taus:
        Relaxation times, shape ``(C,)``.
    floor:
        Denominator floor to keep solid / vacuum nodes finite; their
        velocity is irrelevant (they never collide) but must not be NaN.
    """
    taus = np.asarray(taus, dtype=np.float64)
    if taus.shape != (rhos.shape[0],):
        raise ValueError(f"taus must have shape ({rhos.shape[0]},), got {taus.shape}")
    inv_tau = (1.0 / taus).reshape((-1,) + (1,) * (rhos.ndim - 1))
    denom = (rhos * inv_tau).sum(axis=0)
    numer = (momenta * inv_tau[:, None]).sum(axis=0)
    return numer / np.maximum(denom, floor)


def mixture_velocity(
    rhos: np.ndarray,
    momenta: np.ndarray,
    forces: np.ndarray,
    *,
    floor: float = 1e-300,
) -> np.ndarray:
    """Physical (output) velocity of the mixture, with the half-force
    correction: ``u = (sum p_sigma + 1/2 sum F_sigma) / sum rho_sigma``."""
    total_rho = rhos.sum(axis=0)
    total_mom = momenta.sum(axis=0) + 0.5 * forces.sum(axis=0)
    return total_mom / np.maximum(total_rho, floor)
