"""Shan-Chen interparticle interaction (the multicomponent S-C model).

The interaction potential between components (paper, Section 2.1) is

``V(x, x') = sum_{sigma sigma'} G_{sigma sigma'}(x, x')
             psi_sigma(x) psi_sigma'(x')``

with the Green's function restricted to nearest lattice links.  The force
it induces on component sigma is

``F_sigma(x) = -psi_sigma(x) * sum_sigma' g_{sigma sigma'}
               sum_k w_k psi_sigma'(x + c_k) c_k``.

with the standard multicomponent pseudopotential ``psi(rho) = rho``.  For
the water/air mixture a repulsive cross-coupling (g_wa > 0) with neutral
self-coupling reproduces the immiscible two-phase behaviour the paper
simulates.
"""

from __future__ import annotations

import numpy as np

from repro.lbm.lattice import Lattice


def validate_g_matrix(g: np.ndarray, n_components: int) -> np.ndarray:
    """Check the coupling matrix is square, symmetric and finite."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (n_components, n_components):
        raise ValueError(
            f"g matrix must be ({n_components}, {n_components}), got {g.shape}"
        )
    if not np.isfinite(g).all():
        raise ValueError("g matrix must be finite")
    if not np.allclose(g, g.T):
        raise ValueError("g matrix must be symmetric (Newton's third law)")
    return g


def shifted_psi_sum(psi: np.ndarray, lattice: Lattice) -> np.ndarray:
    """``S(x) = sum_k w_k psi(x + c_k) c_k`` — the lattice gradient of psi.

    *psi* has spatial shape ``(*S,)``; the result has shape ``(D, *S)``.
    Periodic wrap is used; the solver masks psi to zero on solid nodes so
    walls act as neutral (non-wetting handled by the explicit wall force).
    """
    out = np.zeros((lattice.D,) + psi.shape, dtype=np.float64)
    spatial_axes = tuple(range(lattice.D))
    for k in lattice.moving:
        ck = lattice.c[k]
        # psi(x + c_k) viewed from x is a roll by -c_k, i.e. by the
        # opposite direction's precomputed shift tuple.
        shifted = np.roll(psi, lattice.shifts[lattice.opp[k]], axis=spatial_axes)
        wk = lattice.w[k]
        for d in range(lattice.D):
            if ck[d] != 0:
                out[d] += (wk * ck[d]) * shifted
    return out


def interaction_force(
    psis: np.ndarray,
    g_matrix: np.ndarray,
    lattice: Lattice,
) -> np.ndarray:
    """Shan-Chen force on every component.

    Parameters
    ----------
    psis:
        Pseudopotential fields, shape ``(C, *S)`` (already zeroed at solid
        nodes by the caller).
    g_matrix:
        Symmetric coupling matrix, shape ``(C, C)``.  Callers are expected
        to have validated it once up front (``LBMConfig.__post_init__`` and
        kernel-backend construction do) — this per-step hot path does not
        re-validate; use :func:`validate_g_matrix` explicitly for untrusted
        input.

    Returns
    -------
    Forces of shape ``(C, D, *S)``.
    """
    n_comp = psis.shape[0]
    g_matrix = np.asarray(g_matrix, dtype=np.float64)
    sums = np.stack([shifted_psi_sum(psis[c], lattice) for c in range(n_comp)])
    # F_sigma = -psi_sigma * sum_sigma' g[sigma, sigma'] * S_sigma'
    forces = np.zeros_like(sums)
    for sigma in range(n_comp):
        coupled = np.tensordot(g_matrix[sigma], sums, axes=([0], [0]))
        forces[sigma] = -psis[sigma][None] * coupled
    return forces
