"""Observables extracted from a solver state: the profiles and the slip
measures that the paper's Figures 6 and 7 report.

All profile helpers take the *solver* plus the sampling cross-section,
mirroring the paper's measurement at ``x = 1 um`` (channel midpoint) and
``z = 50 nm`` (mid-depth) — the velocity helpers also take a finished
run's :class:`repro.api.RunResult`.  Profile positions are the monotone
coordinate from the low wall surface ("distance from the side wall").
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from typing import Protocol

import numpy as np

from repro.lbm.forces import solid_mask_field
from repro.lbm.solver import LBMConfig, MulticomponentLBM


class VelocitySource(Protocol):
    """A solver, or a run result: a config plus a mixture velocity."""

    config: LBMConfig

    def velocity(self) -> np.ndarray: ...


@dataclass(frozen=True)
class Profile:
    """A 1-D profile across the channel.

    Attributes
    ----------
    positions:
        Distance of each fluid node from the low wall surface, in lattice
        units, strictly increasing.
    values:
        The sampled field at those nodes.
    """

    positions: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.positions.shape != self.values.shape:
            raise ValueError("positions and values must have the same shape")
        if self.positions.size >= 2 and not (self.positions[1:] > self.positions[:-1]).all():
            raise ValueError("positions must be strictly increasing")

    def near_wall(self, depth: float) -> "Profile":
        """Restrict to the region within *depth* of the low wall (the
        paper's Figure 6 shows the 40 nm strip next to the side wall)."""
        keep = self.positions <= depth
        return Profile(self.positions[keep], self.values[keep])


def _extract_lines(
    source: VelocitySource,
    field: np.ndarray,
    axis: int,
    x_indices: Iterable[int | None],
    other_index: int | None,
) -> list[Profile]:
    """*field* along *axis*, fluid nodes only, on the line through each
    of the *x_indices* planes of the requested cross-section (``None``
    indices: channel midpoints, like the paper)."""
    geo = source.config.geometry
    if not 1 <= axis < geo.ndim:
        raise ValueError(f"profile axis must be a wall axis in [1, {geo.ndim}), got {axis}")
    idx: list[object] = [
        geo.centerline_index(d) if other_index is None else other_index
        for d in range(geo.ndim)
    ]
    idx[axis] = slice(None)
    coord = geo.wall_coordinate(axis)
    fluid = getattr(source, "fluid", None)  # a result carries no mask
    if fluid is None:
        fluid = ~solid_mask_field(source.config, geo)
    lines: list[Profile] = []
    made: dict[tuple[bytes, bytes], Profile] = {}
    for x_index in x_indices:
        idx[0] = geo.centerline_index(0) if x_index is None else x_index
        line = tuple(idx)
        keep = fluid[line]
        key = (keep.tobytes(), field[line].tobytes())
        if key not in made:  # bit-identical planes share one Profile
            made[key] = Profile(coord[line][keep], field[line][keep])
        lines.append(made[key])
    return lines


def density_profile(
    solver: MulticomponentLBM,
    component: str,
    *,
    axis: int = 1,
    x_index: int | None = None,
    other_index: int | None = None,
) -> Profile:
    """Density of *component* along *axis* at the given cross-section
    (the paper's Figure 6), fluid nodes only."""
    ci = solver.config.component_index(component)
    return _extract_lines(solver, solver.rho[ci], axis, [x_index], other_index)[0]


def velocity_profile(
    solver: VelocitySource,
    *,
    axis: int = 1,
    flow_axis: int = 0,
    x_index: int | None = None,
    other_index: int | None = None,
) -> Profile:
    """Streamwise mixture velocity along *axis* at the cross-section
    (Figure 7 before normalization)."""
    u = solver.velocity()[flow_axis]
    return _extract_lines(solver, u, axis, [x_index], other_index)[0]


def normalized_velocity_profile(
    solver: VelocitySource,
    *,
    axis: int = 1,
    flow_axis: int = 0,
    x_index: int | None = None,
    other_index: int | None = None,
) -> Profile:
    """Velocity profile normalized by its own maximum (u/u0, Figure 7)."""
    prof = velocity_profile(
        solver, axis=axis, flow_axis=flow_axis, x_index=x_index, other_index=other_index
    )
    u0 = float(np.max(np.abs(prof.values)))
    if u0 == 0.0:
        raise ValueError("flow has zero velocity; run the solver first")
    return Profile(positions=prof.positions, values=prof.values / u0)


def slip_fraction(profile: Profile) -> float:
    """Apparent slip at the wall surface: the streamwise velocity linearly
    extrapolated to the no-slip surface (position 0), normalized by the
    free-stream (maximum) velocity.

    For a pure no-slip Poiseuille profile this is ~0 (slightly negative by
    curvature); the paper reports approximately 10% for the hydrophobic
    channel.
    """
    if profile.values.size < 3:
        raise ValueError("profile too short to measure slip")
    u0 = float(np.max(np.abs(profile.values)))
    if u0 == 0.0:
        raise ValueError("zero free-stream velocity")
    d0, d1 = profile.positions[:2]
    u_first, u_second = profile.values[:2]
    u_wall = u_first - (u_second - u_first) / (d1 - d0) * d0
    return float(u_wall / u0)


def apparent_slip_fraction(profile: Profile, *, boundary_layer: float = 8.0) -> float:
    """Apparent slip as an experimentalist would measure it (the paper's
    Tretheway-Meinhart comparison): fit a parabola to the *bulk* velocity
    profile — excluding the thin depleted layer within *boundary_layer* of
    either wall — extrapolate it to the wall surface, and normalize by the
    fitted free-stream maximum.

    A no-slip Poiseuille flow yields ~0; the hydrophobic channel yields a
    positive fraction (~0.1 for the paper's parameters).
    """
    d, u = profile.positions, profile.values
    if d.size < 8:
        raise ValueError("profile too short for a core fit")
    width = float(d.max()) + 0.5
    core = (d >= boundary_layer) & (d <= width - boundary_layer)
    if core.sum() < 5:
        raise ValueError(
            f"boundary_layer={boundary_layer} leaves too few core points "
            f"({int(core.sum())}) in a channel of width {width}"
        )
    coef = np.polyfit(d[core], u[core], 2)
    if coef[0] >= 0:
        raise ValueError("core profile is not concave; flow not developed")
    u_wall = float(np.polyval(coef, 0.0))
    apex = -coef[1] / (2.0 * coef[0])
    u_max = float(np.polyval(coef, apex))
    if u_max == 0.0:
        raise ValueError("zero fitted free-stream velocity")
    return u_wall / u_max


# --------------------------------------------------- inhomogeneous walls
#
# The single-cross-section measures above assume the paper's flat,
# x-invariant walls, where every streamwise plane sees the same profile.
# Rough and patterned scenarios (repro.scenarios) break that: the local
# slip varies along the flow axis, so one midpoint sample is an
# arbitrary stripe, not the channel's effective slip.  The helpers below
# reduce over *all* streamwise planes instead.


def streamwise_velocity_profiles(
    solver: VelocitySource,
    *,
    axis: int = 1,
    flow_axis: int = 0,
    other_index: int | None = None,
) -> list[Profile]:
    """The velocity profile of **every** streamwise plane of a solver or
    a run result (bit-identical planes share one :class:`Profile`) — the
    list :func:`streamwise_slip_profile` and :func:`effective_slip_fraction`
    take in place of the source when several measures share one extraction."""
    u = solver.velocity()[flow_axis]
    return _extract_lines(solver, u, axis, range(u.shape[0]), other_index)


def streamwise_slip_profile(
    solver: VelocitySource | list[Profile],
    *,
    axis: int = 1,
    flow_axis: int = 0,
    other_index: int | None = None,
    measure=slip_fraction,
) -> Profile:
    """*measure* evaluated on the velocity profile of every streamwise
    plane (of *solver*, or as already extracted by
    :func:`streamwise_velocity_profiles`): positions are the x indices,
    values the per-plane slip.  The per-stripe view behind
    :func:`effective_slip_fraction` (and the fig-pattern stripe plots);
    bit-identical planes (all, on x-invariant walls) are measured once."""
    lines = solver if isinstance(solver, list) else streamwise_velocity_profiles(
        solver, axis=axis, flow_axis=flow_axis, other_index=other_index
    )
    keys = [(line.positions.tobytes(), line.values.tobytes()) for line in lines]
    measured = {key: measure(line) for key, line in dict(zip(keys, lines)).items()}
    return Profile(
        positions=np.arange(len(lines), dtype=np.float64),
        values=np.asarray([measured[key] for key in keys], dtype=np.float64),
    )


def effective_slip_fraction(
    solver: VelocitySource | list[Profile],
    *,
    axis: int = 1,
    flow_axis: int = 0,
    other_index: int | None = None,
    measure=slip_fraction,
) -> float:
    """Effective (channel-averaged) slip for possibly inhomogeneous
    walls: *measure* (default :func:`slip_fraction`) averaged over all
    streamwise planes.

    For x-invariant physics every plane carries the bitwise-identical
    profile, and the function returns that single plane's value exactly
    — no floating-point averaging error — so the homogeneous scenario
    reproduces the historical midpoint measurement bit-for-bit.
    """
    values = streamwise_slip_profile(
        solver, axis=axis, flow_axis=flow_axis, other_index=other_index, measure=measure
    ).values
    return float(values[0] if np.all(values == values[0]) else values.mean())


def effective_apparent_slip_fraction(
    solver: VelocitySource,
    *,
    axis: int = 1,
    flow_axis: int = 0,
    other_index: int | None = None,
    boundary_layer: float = 8.0,
) -> float:
    """:func:`apparent_slip_fraction` (parabolic core fit) averaged over
    all streamwise planes — the experimentalist's measure for rough or
    patterned walls."""
    measure = partial(apparent_slip_fraction, boundary_layer=boundary_layer)
    return effective_slip_fraction(
        solver, axis=axis, flow_axis=flow_axis, other_index=other_index, measure=measure
    )
