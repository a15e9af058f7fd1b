"""External forces: the hydrophobic wall force and the driving body force.

The paper models hydrophobic walls by a force that is repulsive to the
water component and neutral to the air component, applied in a region very
close to the walls and decaying exponentially away from them:

``F_1(x) = 0`` (air),
``F_2(x) = a * (0, g2(y), g3(z))`` (water),

with ``g(d) = exp(-d / lambda)`` along the inward wall normal, amplitude
``a = 0.2`` (nondimensional) and decay length 12.5 nm (2.5 lattice
spacings at the paper's 5 nm grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.lbm.geometry import ChannelGeometry, geometry_cached
from repro.util.validation import check_nonnegative, check_positive

if TYPE_CHECKING:  # repro.lbm.solver imports this module
    from repro.lbm.solver import LBMConfig


@dataclass(frozen=True)
class WallForceSpec:
    """Hydrophobic wall-force parameters.

    Attributes
    ----------
    amplitude:
        Nondimensional force magnitude ``a`` at the wall surface (the paper
        uses 0.2).
    decay_length:
        Exponential decay length in lattice units (paper: 12.5 nm / 5 nm =
        2.5 spacings).
    component:
        Name of the component the force acts on (the water); all other
        components feel nothing.
    """

    amplitude: float = 0.2
    decay_length: float = 2.5
    component: str = "water"

    def __post_init__(self) -> None:
        check_nonnegative(self.amplitude, "amplitude")
        check_positive(self.decay_length, "decay_length")
        if not self.component:
            raise ValueError("component name must be non-empty")


def _fluid_mask(geometry: ChannelGeometry) -> np.ndarray:
    """The geometry's own fluid mask, read-only, built once per geometry."""
    return geometry_cached(("fluid", geometry), geometry.fluid_mask)


def wall_force_field(
    geometry: ChannelGeometry, spec: WallForceSpec
) -> np.ndarray:
    """Precompute the static hydrophobic force field.

    Returns an array of shape ``(D, *S)``: for each wall axis the force
    points along the inward normal (pushing water away from the wall) with
    magnitude ``a * exp(-d / lambda)``; contributions from opposite walls
    superpose (and cancel on the centerline by symmetry).  The force is
    zero inside the solid walls.
    """
    ndim = geometry.ndim
    force = np.zeros((ndim,) + geometry.shape, dtype=np.float64)
    if spec.amplitude == 0.0:
        return force
    fluid = _fluid_mask(geometry)
    for ax in geometry.wall_axes:
        n = geometry.shape[ax]
        t = geometry.wall_thickness
        idx = np.arange(n, dtype=np.float64)
        lo_surface = t - 0.5
        hi_surface = (n - 1 - t) + 0.5
        d_lo = np.maximum(idx - lo_surface, 0.0)
        d_hi = np.maximum(hi_surface - idx, 0.0)
        # Repulsion from the low wall pushes toward +ax, from the high wall
        # toward -ax; both decay exponentially with their own distance.
        profile = spec.amplitude * (
            np.exp(-d_lo / spec.decay_length) - np.exp(-d_hi / spec.decay_length)
        )
        shape = [1] * ndim
        shape[ax] = n
        force[ax] += profile.reshape(shape)
    force *= fluid  # no force inside the solid
    return force


def body_force_field(
    geometry: ChannelGeometry, acceleration: tuple[float, ...] | np.ndarray
) -> np.ndarray:
    """Uniform driving body force per unit density (e.g. a pressure
    gradient along x), zeroed on solid nodes.

    Returns shape ``(D, *S)``.
    """
    acc = np.asarray(acceleration, dtype=np.float64)
    if acc.shape != (geometry.ndim,):
        raise ValueError(
            f"acceleration must have shape ({geometry.ndim},), got {acc.shape}"
        )
    fluid = _fluid_mask(geometry)
    force = np.zeros((geometry.ndim,) + geometry.shape, dtype=np.float64)
    for d in range(geometry.ndim):
        force[d] = acc[d] * fluid
    return force


def solid_mask_field(
    config: "LBMConfig", geometry: ChannelGeometry
) -> np.ndarray:
    """Boolean solid-node field of *config* on *geometry*: the wall
    scenario's when there is one (rough walls reshape the channel), the
    geometry's own otherwise.

    *geometry* is an argument of its own, here and in
    :func:`acceleration_field`, because the parallel driver evaluates an
    x-invariant configuration on a one-plane stand-in for
    ``config.geometry``.
    """
    if config.scenario is not None:
        return config.scenario.solid_mask(geometry)
    return geometry.solid_mask()


def acceleration_field(
    config: "LBMConfig", geometry: ChannelGeometry
) -> np.ndarray:
    """Static force per unit density on every component, shape
    ``(C, D, *S)``: the wall force, then the scenario's wall
    acceleration, then the body force.  That summation order is part of
    the bitwise contract between the sequential solver, the ensemble
    engine and the parallel driver, which all build their field here.
    """
    n_comp = config.n_components
    accel = np.zeros(
        (n_comp, config.lattice.D) + geometry.shape, dtype=np.float64
    )
    if config.wall_force is not None:
        target = config.component_index(config.wall_force.component)
        accel[target] += wall_force_field(geometry, config.wall_force)
    if config.scenario is not None:
        target = config.component_index(config.scenario.component)
        accel[target] += config.scenario.wall_accel(geometry)
    if config.body_acceleration is not None:
        body = body_force_field(geometry, config.body_acceleration)
        for c in range(n_comp):
            accel[c] += body
    return accel
