"""Patterned walls: streamwise stripes of alternating slip (Ahmed–Hecht).

Ahmed & Hecht (2009) study microchannels whose walls alternate between
high- and low-slip stripes perpendicular to the flow.  In the paper's
force model that is a square-wave modulation of the hydrophobic force
amplitude along the (periodic) flow axis: over each ``period`` lattice
sites, a fraction ``duty`` carries ``amplitude_hi`` and the rest
``amplitude_lo``.  ``duty=1`` collapses bit-for-bit to the homogeneous
scenario at ``amplitude_hi`` (and ``duty=0`` to ``amplitude_lo``), which
the differential tests exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.lbm.geometry import ChannelGeometry
from repro.scenarios.base import Scenario, register_scenario
from repro.util.validation import (
    check_integer,
    check_nonnegative,
    check_positive,
    check_probability,
)


@register_scenario
@dataclass(frozen=True)
class PatternedScenario(Scenario):
    """Square-wave streamwise modulation of the hydrophobic force.

    Attributes
    ----------
    amplitude_hi, amplitude_lo:
        Force amplitude on the high-slip / low-slip stripes.
    period:
        Stripe period in lattice sites along the flow axis (axis 0).
    duty:
        Fraction of each period carrying ``amplitude_hi``.
    phase:
        Integer offset of the pattern along the flow axis.
    decay_length, component:
        The wall-normal decay, as in the homogeneous scenario.
    """

    name: ClassVar[str] = "patterned"
    alters_geometry: ClassVar[bool] = False
    x_invariant: ClassVar[bool] = False

    amplitude_hi: float = 0.2
    amplitude_lo: float = 0.0
    period: int = 8
    duty: float = 0.5
    phase: int = 0
    decay_length: float = 2.5
    component: str = "water"

    def __post_init__(self) -> None:
        check_nonnegative(self.amplitude_hi, "amplitude_hi")
        check_nonnegative(self.amplitude_lo, "amplitude_lo")
        check_integer(self.period, "period", minimum=1)
        check_probability(self.duty, "duty")
        check_integer(self.phase, "phase", minimum=0)
        check_positive(self.decay_length, "decay_length")
        if not self.component:
            raise ValueError("component name must be non-empty")

    def modulation(self, n_stream: int) -> np.ndarray:
        """The per-site amplitude along the flow axis, shape ``(n,)``."""
        x = np.arange(n_stream, dtype=np.int64)
        on = ((x + self.phase) % self.period) < self.duty * self.period
        return np.where(on, float(self.amplitude_hi), float(self.amplitude_lo))

    def wall_accel(self, geometry: ChannelGeometry) -> np.ndarray:
        if 0 in geometry.wall_axes:
            raise ValueError(
                "patterned scenario modulates along the flow axis (axis 0), "
                "which must be periodic, not a wall axis"
            )
        ndim = geometry.ndim
        force = np.zeros((ndim,) + geometry.shape, dtype=np.float64)
        mod_shape = [1] * ndim
        mod_shape[0] = geometry.shape[0]
        mod = self.modulation(geometry.shape[0]).reshape(mod_shape)
        for ax in geometry.wall_axes:
            n = geometry.shape[ax]
            t = geometry.wall_thickness
            idx = np.arange(n, dtype=np.float64)
            lo_surface = t - 0.5
            hi_surface = (n - 1 - t) + 0.5
            d_lo = np.maximum(idx - lo_surface, 0.0)
            d_hi = np.maximum(hi_surface - idx, 0.0)
            # Unit wall-normal profile, modulated streamwise.  On an
            # all-hi pattern `mod * unit` multiplies the exact same two
            # floats as the homogeneous `amplitude * unit`, so duty=1 is
            # bit-identical to HomogeneousScenario(amplitude_hi).
            unit = np.exp(-d_lo / self.decay_length) - np.exp(
                -d_hi / self.decay_length
            )
            shape = [1] * ndim
            shape[ax] = n
            force[ax] += mod * unit.reshape(shape)
        force *= ~self.solid_mask(geometry)  # no force inside the solid
        return force

    def expected_trends(self) -> dict[str, str]:
        # More (or stronger) slippery stripes mean more apparent slip.
        return {"duty": "+", "amplitude_hi": "+", "amplitude_lo": "+"}
