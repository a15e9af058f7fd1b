"""Extension experiment: resolution dependence of the slip measurement.

The paper runs one resolution (5 nm spacing).  Our scaled reproductions
run coarser grids, where the wall-extrapolated slip has a finite-
resolution floor even without hydrophobic forces.  This experiment sweeps
the duct resolution at fixed *physical* geometry (the wall-force decay
length and channel aspect scale with the grid) and separates the two
contributions.  The no-force baseline shrinks with resolution, and so
does the forced-minus-control gain: it is not a resolution-independent
hydrophobic signal.  Run far past the phase counts below, the gain is
6.5 pp on the coarsest grid (converged) and at most 2.5 pp on the
finest (still settling); those phase counts stop the finer grids short
of steady state, which overstates their gain (EXPERIMENTS.md lists the
longer runs and their residuals).
"""

from __future__ import annotations

from repro.experiments.channel import run_all, slip_pair
from repro.experiments.report import Report
from repro.lbm.diagnostics import slip_fraction, velocity_profile
from repro.util.tables import format_table

#: (shape, steps): thin-z ducts whose development time ~ z^2 stays small.
RESOLUTIONS = (
    ((16, 40, 6), 1200),
    ((20, 60, 8), 1800),
    ((24, 80, 10), 2500),
    ((28, 100, 12), 3200),
)


def run(
    fast: bool = False,
    *,
    resolutions=RESOLUTIONS,
    amplitude: float = 0.2,
) -> Report:
    if fast:
        resolutions = resolutions[:2]

    series = []
    for shape, steps in resolutions:
        # Scale the decay length with the cross-section so the physical
        # layer thickness relative to the channel stays fixed.
        decay = 2.5 * shape[1] / 80.0
        forced, control = (
            r.solver() for r in run_all(slip_pair(shape, steps, amplitude, decay))
        )
        slip_f = slip_fraction(velocity_profile(forced))
        slip_c = slip_fraction(velocity_profile(control))
        series.append(
            {"shape": shape, "slip_control": slip_c, "slip_forced": slip_f, "gain": slip_f - slip_c}
        )

    text = format_table(
        ["grid", "control slip (%)", "forced slip (%)", "gain (pp)"],
        [
            (
                "x".join(map(str, p["shape"])),
                100 * p["slip_control"],
                100 * p["slip_forced"],
                100 * p["gain"],
            )
            for p in series
        ],
        title=(
            f"Wall-extrapolated slip vs. duct resolution "
            f"(amplitude {amplitude}, decay scaled with the cross-section)"
        ),
        float_fmt="{:.2f}",
    )
    text += (
        "\n\nThe control (no-force) slip is a finite-resolution artifact and "
        "falls as the grid refines.  The forced-minus-control gain falls "
        "too, so it is not a resolution-independent hydrophobic signal, "
        "and these phase counts stop the finer grids short of steady "
        "state, which overstates their gain (EXPERIMENTS.md lists "
        "longer runs)."
    )
    return Report(
        name="ext-resolution",
        title="Resolution dependence of the slip measurement",
        text=text,
        data={"series": series},
    )
