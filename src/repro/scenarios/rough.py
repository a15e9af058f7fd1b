"""Rough walls: randomized wall-height displacement (Kunert–Harting).

Kunert & Harting (2007) showed that nanoscale wall roughness *masks*
apparent slip: the effective hydrodynamic boundary sits near the
roughness peaks, so measured slip decreases as the RMS height grows.
``RoughScenario`` reproduces that setup on the paper's channel — each
wall surface is displaced inward by an independent, seeded random
integer height field (|N(0, rms)| rounded, capped at ``max_height``),
and the hydrophobic force decays from the **local displaced surface**
rather than the flat one.

All randomness flows through :mod:`repro.util.rng` (REP003): the height
fields are a pure function of ``seed`` and the geometry, so the same
scenario always produces the same walls — which is also why ``seed`` is
part of the scenario's identity document and geometry signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.lbm.geometry import ChannelGeometry
from repro.scenarios.base import Scenario, register_scenario
from repro.util.rng import spawn_rngs
from repro.util.validation import (
    check_integer,
    check_nonnegative,
    check_positive,
)


@register_scenario
@dataclass(frozen=True)
class RoughScenario(Scenario):
    """Hydrophobic force over randomly roughened walls.

    Attributes
    ----------
    amplitude, decay_length, component:
        The hydrophobic force, as in the homogeneous scenario.
    rms:
        RMS roughness knob — standard deviation (in lattice spacings) of
        the Gaussian the integer wall heights are drawn from.  ``0``
        reduces bit-for-bit to the homogeneous scenario.
    max_height:
        Hard cap on the drawn heights, so a narrow channel can never be
        pinched shut by an unlucky draw.
    seed:
        Seed for the height fields (via ``util.rng.spawn_rngs``); part
        of the scenario identity, so two draws never share a cache key.
    """

    name: ClassVar[str] = "rough"
    alters_geometry: ClassVar[bool] = True
    x_invariant: ClassVar[bool] = False

    amplitude: float = 0.2
    decay_length: float = 2.5
    component: str = "water"
    rms: float = 1.0
    max_height: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        check_nonnegative(self.amplitude, "amplitude")
        check_positive(self.decay_length, "decay_length")
        check_nonnegative(self.rms, "rms")
        check_integer(self.max_height, "max_height", minimum=0)
        check_integer(self.seed, "seed", minimum=0)
        if not self.component:
            raise ValueError("component name must be non-empty")

    def geometry_params(self) -> dict[str, Any]:
        return {
            "rms": float(self.rms),
            "max_height": int(self.max_height),
            "seed": int(self.seed),
        }

    # ------------------------------------------------------------ fields
    def _heights(self, geometry: ChannelGeometry) -> dict[tuple[int, str], np.ndarray]:
        """Integer height field per (wall axis, side), shaped like the
        geometry with that axis dropped.  Deterministic in ``seed``, so
        drawn once per geometry signature and geometry."""
        return self._geometry_data("heights", geometry, self._draw_heights)

    def _draw_heights(self, geometry: ChannelGeometry) -> dict[tuple[int, str], np.ndarray]:
        for ax in geometry.wall_axes:
            needed = 2 * (geometry.wall_thickness + self.max_height) + 1
            if geometry.shape[ax] < needed:
                raise ValueError(
                    f"axis {ax} has {geometry.shape[ax]} nodes but rough walls "
                    f"with max_height={self.max_height} need >= {needed}"
                )
        rngs = spawn_rngs(self.seed, 2 * len(geometry.wall_axes))
        heights: dict[tuple[int, str], np.ndarray] = {}
        for k, ax in enumerate(geometry.wall_axes):
            perp = tuple(
                n for d, n in enumerate(geometry.shape) if d != ax
            )
            for j, side in enumerate(("lo", "hi")):
                drawn = np.abs(rngs[2 * k + j].normal(0.0, self.rms, size=perp))
                h = np.minimum(np.rint(drawn), float(self.max_height))
                heights[(ax, side)] = h.astype(np.int64)
        return heights

    def _build_solid_mask(self, geometry: ChannelGeometry) -> np.ndarray:
        mask = geometry.solid_mask()
        heights = self._heights(geometry)
        for ax in geometry.wall_axes:
            n = geometry.shape[ax]
            t = geometry.wall_thickness
            shape = [1] * geometry.ndim
            shape[ax] = n
            idx = np.arange(n, dtype=np.int64).reshape(shape)
            h_lo = np.expand_dims(heights[(ax, "lo")], ax)
            h_hi = np.expand_dims(heights[(ax, "hi")], ax)
            mask |= idx < t + h_lo
            mask |= idx >= n - t - h_hi
        return mask

    def _decay_profiles(self, geometry: ChannelGeometry) -> dict[int, np.ndarray]:
        """Per wall axis, the unit-amplitude repulsion from both
        displaced surfaces — geometry and ``decay_length`` only, so a
        sweep over ``amplitude`` computes it once."""
        heights = self._heights(geometry)
        profiles: dict[int, np.ndarray] = {}
        for ax in geometry.wall_axes:
            n = geometry.shape[ax]
            t = geometry.wall_thickness
            shape = [1] * geometry.ndim
            shape[ax] = n
            idx = np.arange(n, dtype=np.float64).reshape(shape)
            h_lo = np.expand_dims(heights[(ax, "lo")], ax)
            h_hi = np.expand_dims(heights[(ax, "hi")], ax)
            # Distances from the *displaced* surfaces; with h == 0 these
            # collapse to the flat-wall formula in repro.lbm.forces.
            lo_surface = t + h_lo - 0.5
            hi_surface = (n - 1 - t - h_hi) + 0.5
            d_lo = np.maximum(idx - lo_surface, 0.0)
            d_hi = np.maximum(hi_surface - idx, 0.0)
            profiles[ax] = np.exp(-d_lo / self.decay_length) - np.exp(
                -d_hi / self.decay_length
            )
        return profiles

    def wall_accel(self, geometry: ChannelGeometry) -> np.ndarray:
        ndim = geometry.ndim
        force = np.zeros((ndim,) + geometry.shape, dtype=np.float64)
        if self.amplitude == 0.0:
            return force
        profiles = self._geometry_data(
            "decay", geometry, self._decay_profiles, float(self.decay_length)
        )
        for ax in geometry.wall_axes:
            force[ax] += self.amplitude * profiles[ax]
        force *= ~self.solid_mask(geometry)  # no force inside the solid
        return force

    def expected_trends(self) -> dict[str, str]:
        # Kunert–Harting: roughness masks apparent slip; a stronger
        # repulsion amplifies it.
        return {"rms": "-", "amplitude": "+"}
