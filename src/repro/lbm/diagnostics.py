"""Observables extracted from a solver state: the profiles and the slip
measures that the paper's Figures 6 and 7 report.

All profile helpers take the *solver* plus the sampling cross-section,
mirroring the paper's measurement at ``x = 1 um`` (channel midpoint) and
``z = 50 nm`` (mid-depth) — the velocity helpers also take a finished
run's :class:`repro.api.RunResult`.  Profile positions are the monotone
coordinate from the low wall surface ("distance from the side wall").
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
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


@dataclass(frozen=True)
class StreamwiseLines:
    """The line across the channel on every streamwise plane of one
    cross-section: ``coord`` ``(n,)`` is the distance from the low wall
    surface, ``values`` and ``fluid`` ``(nx, n)`` the field and the fluid
    mask on each plane's line, and ``lines[x]`` plane ``x``'s profile."""

    coord: np.ndarray
    values: np.ndarray
    fluid: np.ndarray

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, x: int) -> Profile:
        return Profile(self.coord[self.fluid[x]], self.values[x][self.fluid[x]])

    def measured(self, measure: Callable[[Profile], float]) -> np.ndarray:
        """*measure* of every plane: :func:`slip_fraction` on the whole
        block at once, any other measure once per bit-distinct plane in
        plane order, the first plane it refuses raising before the next."""
        if measure is slip_fraction:
            return _wall_slips(self.coord, self.values, self.fluid)
        out = np.empty(len(self), dtype=np.float64)
        seen: dict[tuple[bytes, bytes], float] = {}
        for x, (keep, row) in enumerate(zip(self.fluid, self.values)):
            key = (keep.tobytes(), row.tobytes())
            if key not in seen:  # bit-identical planes are measured once
                seen[key] = measure(Profile(self.coord[keep], row[keep]))
            out[x] = seen[key]
        return out


def _cross_section(
    source: VelocitySource, field: np.ndarray, axis: int, other_index: int | None
) -> StreamwiseLines:
    """*field* along *axis* on every plane (``None``: midpoints, like the paper)."""
    geo = source.config.geometry
    if not 1 <= axis < geo.ndim:
        raise ValueError(f"profile axis must be a wall axis in [1, {geo.ndim}), got {axis}")
    idx: list[object] = [
        geo.centerline_index(d) if other_index is None else other_index for d in range(geo.ndim)
    ]
    idx[0] = idx[axis] = slice(None)
    sheet = tuple(idx)  # every line of the cross-section: (nx, n) views
    fluid = getattr(source, "fluid", None)  # a result carries no mask
    if fluid is None:
        fluid = ~solid_mask_field(source.config, geo)
    # The coordinate along *axis* is the same on every line.
    return StreamwiseLines(geo.wall_coordinate(axis)[sheet][0], field[sheet], fluid[sheet])


def _plane(
    source: VelocitySource, field: np.ndarray, axis: int, x: int | None, other: int | None
) -> Profile:
    lines = _cross_section(source, field, axis, other)  # x None: the midpoint
    return lines[source.config.geometry.centerline_index(0) if x is None else x]


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
    return _plane(solver, solver.rho[ci], axis, x_index, other_index)


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
    return _plane(solver, solver.velocity()[flow_axis], axis, x_index, other_index)


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
    keep = np.ones((1, profile.values.size), dtype=bool)
    return float(_wall_slips(profile.positions, profile.values[None], keep)[0])


def _wall_slips(coord: np.ndarray, values: np.ndarray, fluid: np.ndarray) -> np.ndarray:
    """:func:`slip_fraction` of each row of *values* ``(k, n)`` on its
    *fluid* nodes at *coord* ``(n,)``, all rows in one pass: the same
    IEEE operations, in the same order, as on one row alone."""
    u0 = np.abs(values).max(axis=1, where=fluid, initial=0.0)
    short = fluid.sum(axis=1) < 3
    bad = short | (u0 == 0.0)
    if bad.any():
        if short[bad.argmax()]:
            raise ValueError("profile too short to measure slip")
        raise ValueError("zero free-stream velocity")
    first, second = fluid.argmax(axis=1), (fluid.cumsum(axis=1) == 2).argmax(axis=1)
    rows = np.arange(values.shape[0], dtype=np.intp)
    d0, d1 = coord[first], coord[second]
    u_first, u_second = values[rows, first], values[rows, second]
    return (u_first - (u_second - u_first) / (d1 - d0) * d0) / u0  # the wall's u over u0


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
    a, b, c = np.polyfit(d[core], u[core], 2).tolist()
    if a >= 0:
        raise ValueError("core profile is not concave; flow not developed")

    def parabola(x: float) -> float:  # np.polyval's steps, on Python floats
        return ((0.0 * x + a) * x + b) * x + c

    u_wall = parabola(0.0)
    u_max = parabola(-b / (2.0 * a))
    if u_max == 0.0:
        raise ValueError("zero fitted free-stream velocity")
    return u_wall / u_max


# --------------------------------------------------- inhomogeneous walls
# On rough and patterned walls (repro.scenarios) the local slip varies
# along the flow axis, so one midpoint sample is an arbitrary stripe: the
# helpers below reduce over *all* streamwise planes instead.


def streamwise_velocity_profiles(
    solver: VelocitySource,
    *,
    axis: int = 1,
    flow_axis: int = 0,
    other_index: int | None = None,
) -> StreamwiseLines:
    """The velocity profile of **every** streamwise plane of a solver or
    a run result, read once, for several measures to share: the per-plane
    slip is :meth:`StreamwiseLines.measured`, its average
    :func:`effective_slip_fraction`."""
    return _cross_section(solver, solver.velocity()[flow_axis], axis, other_index)


def effective_slip_fraction(
    solver: VelocitySource | StreamwiseLines,
    *,
    axis: int = 1,
    flow_axis: int = 0,
    other_index: int | None = None,
    measure: Callable[[Profile], float] = slip_fraction,
) -> float:
    """Effective (channel-averaged) slip for possibly inhomogeneous
    walls: *measure* (default :func:`slip_fraction`) averaged over all
    streamwise planes.

    For x-invariant physics every plane carries the bitwise-identical
    profile, and the function returns that single plane's value exactly
    — no floating-point averaging error — so the homogeneous scenario
    reproduces the historical midpoint measurement bit-for-bit.
    """
    lines = solver if isinstance(solver, StreamwiseLines) else streamwise_velocity_profiles(
        solver, axis=axis, flow_axis=flow_axis, other_index=other_index
    )
    values = lines.measured(measure)
    return float(values[0] if np.all(values == values[0]) else values.mean())
