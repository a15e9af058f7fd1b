"""Solid-wall boundary condition: full-way bounce-back.

After streaming, populations that propagated *into* a solid node are
reversed in place (f_k <- f_opp(k) at solid nodes); on the next streaming
step they travel back into the fluid.  The effective no-slip surface sits
half a lattice spacing outside the first fluid node, which is the standard
interpretation used when extracting wall distances (see
:mod:`repro.lbm.geometry`).
"""

from __future__ import annotations

import numpy as np

from repro.lbm.lattice import Lattice


def bounce_back(f: np.ndarray, solid_mask: np.ndarray, lattice: Lattice) -> None:
    """Reverse all populations at solid nodes, in place.

    Parameters
    ----------
    f:
        Populations, shape ``(Q, *S)``.
    solid_mask:
        Boolean field of shape ``(*S,)``, True at solid (wall) nodes.
    """
    if solid_mask.shape != f.shape[1:]:
        raise ValueError(
            f"solid_mask shape {solid_mask.shape} != spatial shape {f.shape[1:]}"
        )
    if not solid_mask.any():
        return
    # Only the moving directions change under reflection (the rest
    # population is its own opposite), so gather/scatter just those.
    rows = lattice.moving[:, None]
    at_solid = f[rows, solid_mask]  # (Q_moving, n_solid) copy
    f[rows, solid_mask] = at_solid[lattice.moving_opp]
