"""Figure 7: normalized streamwise velocity profiles with and without
hydrophobic wall forces.

The paper's solid line (no wall forces) satisfies no-slip; the dashed line
(with forces) exhibits an apparent slip of roughly 10% of the free-stream
velocity at the wall.  We report both the near-wall extrapolated slip (the
paper's Figure 7B reading) and, for 2-D scenarios where the profile is a
parabola, the bulk-fit apparent slip an experimentalist would measure.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import channel
from repro.experiments.report import Report
from repro.lbm.diagnostics import (
    apparent_slip_fraction,
    normalized_velocity_profile,
    slip_fraction,
)
from repro.lbm.solver import MulticomponentLBM
from repro.util.tables import format_table


def run(fast: bool = False, cache: dict | None = None) -> Report:
    """Run the channel's forced/control pair (or read it from *cache*,
    see :func:`~repro.experiments.channel.run_slip_pair`) and report it."""
    return report(*(result.solver() for result in channel.run_slip_pair(fast, cache)))


def report(
    forced: MulticomponentLBM, control: MulticomponentLBM, *, profile_points: int = 16
) -> Report:
    """Figure 7 from the final solvers of a forced/control pair."""
    prof_f = normalized_velocity_profile(forced)
    prof_c = normalized_velocity_profile(control)

    # Subsample the profile for the printed table (full data kept in .data).
    idx = np.unique(
        np.linspace(0, prof_f.positions.size - 1, profile_points).astype(int)
    )
    rows = zip(prof_f.positions[idx], prof_f.values[idx], prof_c.values[idx])
    text = format_table(
        ["position from wall", "u/u0 with forces", "u/u0 no forces"],
        rows,
        title=(
            "Normalized streamwise velocity along the channel width "
            "(paper Figure 7: dashed = with wall forces, solid = without)"
        ),
        float_fmt="{:.4f}",
    )

    slip_forced = slip_fraction(prof_f)
    slip_control = slip_fraction(prof_c)
    summary = [
        "",
        f"wall-extrapolated slip with forces:    {100 * slip_forced:.2f}% of u0",
        f"wall-extrapolated slip without forces: {100 * slip_control:.2f}% of u0",
        f"slip attributable to hydrophobic forces: "
        f"{100 * (slip_forced - slip_control):.2f} percentage points "
        f"(paper: ~10% slip with forces, ~0 without)",
    ]
    data = {
        "positions": prof_f.positions,
        "u_forced": prof_f.values,
        "u_control": prof_c.values,
        "slip_forced": slip_forced,
        "slip_control": slip_control,
    }
    # The parabolic bulk fit only makes sense when the profile is a 2-D
    # Poiseuille parabola (thin-z 3-D ducts are plug-like along y).
    if forced.config.geometry.ndim == 2:
        bulk_f = apparent_slip_fraction(prof_f)
        bulk_c = apparent_slip_fraction(prof_c)
        summary.append(
            f"bulk-fit apparent slip: {100 * bulk_f:.2f}% with forces vs "
            f"{100 * bulk_c:.2f}% without"
        )
        data["bulk_slip_forced"] = bulk_f
        data["bulk_slip_control"] = bulk_c

    return Report(
        name="fig7",
        title="Normalized streamwise velocity profiles (apparent fluid slip)",
        text=text + "\n".join(summary),
        data=data,
    )
