"""Microchannel geometry: solid masks and wall-distance fields.

The paper's channel (Figure 5) is a rectangular duct: flow along x
(periodic in the simulation), side walls normal to y (width 1 micron) and
top/bottom walls normal to z (depth 0.1 micron).  The hydrophobic wall
force depends on the distance from each wall along the inward normal, so
the geometry also exposes per-axis distance fields.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from repro.util.validation import check_integer

T = TypeVar("T")

#: Bytes of geometry-derived arrays :func:`geometry_cached` keeps, least
#: recently used out first; a larger entry is rebuilt at every call.
GEOMETRY_CACHE_BYTES = 64 * 2**20
_geometry_cache: OrderedDict[tuple, tuple[Any, int]] = OrderedDict()
_geometry_cache_bytes = 0
_geometry_cache_lock = threading.Lock()


def geometry_cached(key: tuple, build: Callable[[], T]) -> T:
    """``build()`` — an array or a dict of arrays — computed once per
    *key* and shared read-only by every caller and thread.  *key* is a
    value (what the data is, the geometry signature, the geometry and
    any further parameter), so every scenario that shapes the walls
    alike — a sweep's samples, a batch's members — shares one solid mask
    and one height draw (:meth:`repro.scenarios.Scenario.solid_mask`).
    Geometry-derived arrays only, never a run's state."""
    global _geometry_cache_bytes
    with _geometry_cache_lock:
        if key in _geometry_cache:
            _geometry_cache.move_to_end(key)
            return _geometry_cache[key][0]
    value = build()
    arrays = list(value.values()) if isinstance(value, dict) else [value]
    for array in arrays:
        array.flags.writeable = False
    nbytes = sum(array.nbytes for array in arrays)
    if nbytes > GEOMETRY_CACHE_BYTES:
        return value
    with _geometry_cache_lock:
        if key not in _geometry_cache:  # another thread may have won
            _geometry_cache[key] = (value, nbytes)
            _geometry_cache_bytes += nbytes
            while _geometry_cache_bytes > GEOMETRY_CACHE_BYTES:
                _geometry_cache_bytes -= _geometry_cache.popitem(last=False)[1][1]
        return _geometry_cache[key][0]


@dataclass(frozen=True)
class ChannelGeometry:
    """A duct with solid wall planes on the requested axes.

    Parameters
    ----------
    shape:
        Full grid shape, e.g. ``(400, 200, 20)``.  Axis 0 (x) is the flow /
        decomposition direction and is always periodic.
    wall_axes:
        Axes that carry solid wall planes at index 0 and index -1.
        ``None`` (default) means every non-x axis (a duct); pass ``(1,)``
        for a 2-D channel between two plates, or ``()`` for a fully
        periodic box (no walls — used by validation flows like the
        Taylor-Green vortex).
    wall_thickness:
        Number of solid layers on each side (>= 1).
    """

    shape: tuple[int, ...]
    wall_axes: tuple[int, ...] | None = None
    wall_thickness: int = 1

    def __post_init__(self) -> None:
        shape = tuple(check_integer(n, "shape entry", minimum=1) for n in self.shape)
        if len(shape) not in (2, 3):
            raise ValueError(f"shape must be 2-D or 3-D, got {shape}")
        wall_axes = (
            tuple(range(1, len(shape)))
            if self.wall_axes is None
            else tuple(self.wall_axes)
        )
        for ax in wall_axes:
            if not 1 <= ax < len(shape):
                raise ValueError(
                    f"wall axis {ax} invalid; axis 0 is periodic flow direction"
                )
        t = check_integer(self.wall_thickness, "wall_thickness", minimum=1)
        for ax in wall_axes:
            if shape[ax] <= 2 * t + 1:
                raise ValueError(
                    f"axis {ax} of extent {shape[ax]} too small for walls of "
                    f"thickness {t} plus fluid"
                )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "wall_axes", tuple(sorted(set(wall_axes))))
        object.__setattr__(self, "wall_thickness", t)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def solid_mask(self) -> np.ndarray:
        """Boolean field, True at solid wall nodes."""
        mask = np.zeros(self.shape, dtype=bool)
        t = self.wall_thickness
        for ax in self.wall_axes:
            sl_lo = [slice(None)] * self.ndim
            sl_hi = [slice(None)] * self.ndim
            sl_lo[ax] = slice(0, t)
            sl_hi[ax] = slice(self.shape[ax] - t, self.shape[ax])
            mask[tuple(sl_lo)] = True
            mask[tuple(sl_hi)] = True
        return mask

    def fluid_mask(self) -> np.ndarray:
        """Boolean field, True at fluid nodes."""
        return ~self.solid_mask()

    def wall_coordinate(self, axis: int) -> np.ndarray:
        """Signed distance (lattice units) from the *low* wall surface along
        *axis* — a monotone coordinate across the channel, used for profile
        plots ("distance from the side wall", paper Figure 6/7).

        The low wall surface sits half a spacing beyond the outermost solid
        node, so the first fluid node is at coordinate 0.5 and the last at
        ``channel_width(axis) - 0.5``.
        """
        if axis not in self.wall_axes:
            raise ValueError(f"axis {axis} has no walls (wall_axes={self.wall_axes})")
        n = self.shape[axis]
        t = self.wall_thickness
        idx = np.arange(n, dtype=np.float64)
        lo_surface = t - 0.5
        coord = idx - lo_surface
        shape = [1] * self.ndim
        shape[axis] = n
        return np.broadcast_to(coord.reshape(shape), self.shape).copy()

    def channel_width(self, axis: int) -> float:
        """Distance between the two no-slip wall surfaces along *axis*."""
        if axis not in self.wall_axes:
            raise ValueError(f"axis {axis} has no walls (wall_axes={self.wall_axes})")
        return float(self.shape[axis] - 2 * self.wall_thickness)

    def centerline_index(self, axis: int) -> int:
        """Index of the grid line closest to the channel center on *axis*."""
        return self.shape[axis] // 2
