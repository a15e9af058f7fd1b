"""Shan-Chen wall adhesion: the standard wettability mechanism.

The paper models hydrophobicity by an *explicit* exponentially decaying
wall force.  The S-C literature's usual alternative couples the fluid to
the solid through the same interaction kernel, with the wall acting as a
phantom phase:

    F_ads,σ(x) = -g_ads,σ ψ_σ(x) Σ_k w_k s(x + c_k) c_k

where ``s`` is the solid indicator.  ``g_ads > 0`` repels the component
from the wall (hydrophobic for the water), ``g_ads < 0`` attracts it
(hydrophilic/wetting).  Because ``s`` is static, the lattice sum is a
precomputable vector field supported on the first fluid layer.

This module provides the field and the force; the solver applies it when
``LBMConfig.adhesion`` is set.  The ``ext`` benchmark compares slip from
this mechanism against the paper's explicit force.
"""

from __future__ import annotations

import numpy as np

from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import Lattice
from repro.lbm.shan_chen import shifted_psi_sum


def wall_indicator_field(
    geometry: ChannelGeometry, lattice: Lattice
) -> np.ndarray:
    """``S(x) = Σ_k w_k s(x + c_k) c_k`` — the lattice gradient of the
    solid indicator; nonzero only on fluid nodes adjacent to a wall,
    pointing *toward* the wall.  Shape ``(D, *S)``."""
    solid = geometry.solid_mask().astype(np.float64)
    field = shifted_psi_sum(solid, lattice)
    field *= geometry.fluid_mask()  # only meaningful on fluid nodes
    return field


def contact_density_ratio(
    rho: np.ndarray, geometry: ChannelGeometry, axis: int = 1
) -> float:
    """Wall-adjacent density over centerline density along *axis* —
    the scalar wettability observable: < 1 for a repelled (non-wetting)
    component, > 1 for an attracted (wetting) one."""
    n = geometry.shape[axis]
    t = geometry.wall_thickness
    first_fluid = [slice(None)] * geometry.ndim
    first_fluid[axis] = t
    center = [slice(None)] * geometry.ndim
    center[axis] = n // 2
    wall_rho = float(rho[tuple(first_fluid)].mean())
    center_rho = float(rho[tuple(center)].mean())
    if center_rho == 0.0:
        raise ValueError("zero centerline density")
    return wall_rho / center_rho
