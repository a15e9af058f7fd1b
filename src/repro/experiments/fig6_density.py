"""Figure 6: fluid densities near the side wall.

The paper plots, at the channel mid cross-section, the water density (A)
and the air/vapour density (B) over the 40 nm strip next to the side
wall: with hydrophobic wall forces the water is depleted and the air
enriched approaching the wall — the depleted layer that generates the
apparent slip.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import channel
from repro.experiments.report import Report
from repro.lbm.diagnostics import density_profile
from repro.lbm.solver import MulticomponentLBM
from repro.util.tables import format_table


def run(fast: bool = False, cache: dict | None = None) -> Report:
    """Run the channel's forced/control pair (or read it from *cache*,
    see :func:`~repro.experiments.channel.run_slip_pair`) and report it."""
    return report(*(result.solver() for result in channel.run_slip_pair(fast, cache)))


def report(
    forced: MulticomponentLBM, control: MulticomponentLBM, *, strip_depth: float = 8.0
) -> Report:
    """Figure 6 from the final solvers of a forced/control pair."""
    water = density_profile(forced, "water").near_wall(strip_depth)
    air = density_profile(forced, "air").near_wall(strip_depth)
    water_ctl = density_profile(control, "water").near_wall(strip_depth)
    air_ctl = density_profile(control, "air").near_wall(strip_depth)

    rows = zip(water.positions, water.values, air.values, water_ctl.values, air_ctl.values)
    text = format_table(
        [
            "dist from wall",
            "rho_water (forced)",
            "rho_air (forced)",
            "rho_water (ctl)",
            "rho_air (ctl)",
        ],
        rows,
        title=(
            "Densities near the side wall (lattice units; paper: water "
            "decreases and air/vapour increases toward a hydrophobic wall)"
        ),
        float_fmt="{:.4f}",
    )

    mid_w = float(np.median(density_profile(forced, "water").values))
    mid_a = float(np.median(density_profile(forced, "air").values))
    depletion = float(water.values[0]) / mid_w
    enrichment = float(air.values[0]) / mid_a
    summary = (
        f"\nwall/bulk water density ratio: {depletion:.3f} (<1 = depleted; "
        f"paper shows ~0.5-0.7)\n"
        f"wall/bulk air density ratio:   {enrichment:.3f} (>1 = enriched; "
        f"paper shows ~1.5-2)"
    )
    return Report(
        name="fig6",
        title="Fluid densities as a function of distance from the side wall",
        text=text + summary,
        data={
            "positions": water.positions,
            "water_forced": water.values,
            "air_forced": air.values,
            "water_control": water_ctl.values,
            "air_control": air_ctl.values,
            "water_depletion_ratio": depletion,
            "air_enrichment_ratio": enrichment,
        },
    )
