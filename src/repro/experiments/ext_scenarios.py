"""Extension figures: slip vs. wall roughness and vs. slip patterning.

The 2004 paper measures one wall physics.  Its lineage asked the next
questions: Kunert & Harting (2007) — what does wall *roughness* do to
the apparent slip? — and the patterned-surface homogenization line
(Philip; Lauga & Stone) — what effective slip does a wall striped with
alternating slip produce?  These two figures answer both on the paper's
own channel, riding the :mod:`repro.scenarios` registry and
:func:`repro.api.run_batch` (compatible grid points share stacked
passes; a diverged one raises).

Both figures use the *flow-gain* effective slip length: fit the
measured per-column flux to plane Poiseuille with symmetric Navier
slip, ``phi/phi0 = 1 + 6 b / H``, against the smooth no-force control.
It is the observable an experimentalist has (flow enhancement at fixed
pressure drop) and it is insensitive to the near-wall secondary
circulation that inhomogeneous wall force fields drive.

- ``fig-roughness``: a **single-component** channel with randomly
  displaced walls (force amplitude zero — geometry only, isolating the
  Kunert–Harting effect from interface dynamics).  The effective slip
  length falls monotonically with RMS height — the effective no-slip
  plane sits near the roughness tops — and the *base-plane
  extrapolated* slip goes negative in step: assuming the wall at the
  valleys, the flow appears to stick below it.  A Latin-hypercube sweep
  (:mod:`repro.sweep`) splits the variance between the RMS knob and
  the realization seed.
- ``fig-pattern``: the paper's water/air channel with streamwise
  hydrophobic stripes.  Effective slip grows monotonically with the
  stripe duty cycle (duty 0 = no-slip control, duty 1 = homogeneous
  wall, bit-identically) and with the stripe period at fixed coverage —
  the Philip / Lauga-Stone scaling, where wider stripes are more
  effective than many narrow ones.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.api import RunResult, RunSpec
from repro.experiments.channel import FAST, channel_config, run_all
from repro.experiments.report import Report
from repro.lbm.components import ComponentSpec
from repro.lbm.diagnostics import effective_slip_fraction
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig
from repro.scenarios import PatternedScenario, RoughScenario, Scenario
from repro.sweep import (
    Discrete,
    SweepParameter,
    SweepSpec,
    Uniform,
    run_sweep,
    variance_sensitivity,
)
from repro.util.tables import format_table

#: The 2-D channel of :data:`repro.experiments.channel.FAST`: wide
#: enough for a developed Poiseuille core, small enough for a grid of runs.
SHAPE = FAST[0]
#: Past the channel's momentum diffusion time (H^2 / nu ~ 10^4 steps
#: is full saturation; flux *ratios* settle much earlier).
STEPS = 8000
FAST_STEPS = 2500


def roughness_config(scenario: Scenario) -> LBMConfig:
    """A single-component water channel: no interfaces, so the rough
    grooves cannot collect air pockets and the measured flow change is
    purely the geometry's."""
    return LBMConfig(
        geometry=ChannelGeometry(shape=SHAPE),
        components=(ComponentSpec("water", tau=1.0, rho_init=1.0),),
        g_matrix=np.zeros((1, 1), dtype=np.float64),
        lattice=D2Q9,
        scenario=scenario,
        body_acceleration=(2e-7, 0.0),
    )


def column_flux(result: RunResult) -> float:
    """Mean per-column volumetric flux (sum of streamwise velocity over
    fluid nodes, per streamwise plane)."""
    solver = result.solver()
    u = solver.velocity()[0]
    return float(u[solver.fluid].sum()) / solver.config.geometry.shape[0]


def flow_gain_slip_length(flux: float, flux0: float, width: float) -> float:
    """Effective Navier slip length from flow enhancement: plane
    Poiseuille with symmetric slip b carries ``1 + 6 b / H`` times the
    no-slip flux.  Negative b means the effective wall moved into the
    channel (roughness)."""
    if flux0 == 0.0:
        raise ValueError("zero reference flux; run the control first")
    return width / 6.0 * (flux / flux0 - 1.0)


def run_roughness(fast: bool = False) -> Report:
    """fig-roughness: effective slip length vs. RMS wall roughness."""
    steps = FAST_STEPS if fast else STEPS
    rms_grid = (0.0, 1.0, 2.0) if fast else (0.0, 0.6, 1.2, 2.0)
    base = RoughScenario(
        amplitude=0.0, decay_length=2.5, rms=0.0, max_height=3, seed=11
    )
    results = run_all(
        [
            RunSpec(
                config=roughness_config(dataclasses.replace(base, rms=r)),
                phases=steps,
            )
            for r in rms_grid
        ]
    )
    width = ChannelGeometry(shape=SHAPE).channel_width(1)
    flux0 = column_flux(results[0])  # rms 0 == the smooth channel
    lengths = [
        flow_gain_slip_length(column_flux(r), flux0, width) for r in results
    ]
    apparent = [effective_slip_fraction(r.solver()) for r in results]
    text = format_table(
        [
            "rms roughness",
            "slip length (spacings)",
            "base-plane slip (% u0)",
        ],
        [
            (r, b, 100 * a)
            for r, b, a in zip(rms_grid, lengths, apparent)
        ],
        title=(
            "Effective slip vs. RMS wall roughness "
            "(geometry only, Kunert-Harting setup)"
        ),
        float_fmt="{:.3f}",
    )
    data: dict = {
        "rms": list(rms_grid),
        "slip_length": lengths,
        "apparent_slip": apparent,
        "trend": base.expected_trends()["rms"],
    }
    if not fast:
        sweep = SweepSpec(
            base_config=roughness_config(base),
            phases=steps // 2,
            parameters=(
                SweepParameter("rms", Uniform(0.0, 2.0)),
                SweepParameter("seed", Discrete((3, 11, 19, 27))),
            ),
            n_samples=8,
            seed=5,
            sampler="lhs",
        )
        result = run_sweep(sweep)
        eta2 = variance_sensitivity(
            [s.params for s in result.samples], result.slip_array()
        )
        text += "\n\n" + format_table(
            ["parameter", "variance explained (eta^2)"],
            sorted(eta2.items(), key=lambda kv: -kv[1]),
            title="LHS sensitivity split (8 samples): RMS knob vs. "
            "realization seed",
            float_fmt="{:.3f}",
        )
        data["sensitivity"] = eta2
    text += (
        "\n\nThe flow-gain slip length falls monotonically with the RMS "
        "height: the effective no-slip plane sits near the roughness "
        "tops, eating channel width.  The base-plane extrapolation "
        "tracks it into *negative* apparent slip — measured against the "
        "valleys, the flow seems to stick below the wall — the "
        "Kunert-Harting measurement-plane effect: where you assume the "
        "wall is changes the slip you report."
    )
    return Report(
        name="fig-roughness",
        title="Effective slip vs. wall roughness (rough scenario)",
        text=text,
        data=data,
    )


def run_pattern(fast: bool = False) -> Report:
    """fig-pattern: effective slip vs. stripe duty cycle and period."""
    steps = FAST_STEPS if fast else STEPS
    duty_grid = (0.0, 0.5, 1.0) if fast else (0.0, 0.25, 0.5, 0.75, 1.0)
    base = PatternedScenario(
        amplitude_hi=0.06, amplitude_lo=0.0, period=8, duty=0.5,
        decay_length=2.5,
    )
    results = run_all(
        [
            RunSpec(
                config=channel_config(SHAPE, dataclasses.replace(base, duty=d)),
                phases=steps,
            )
            for d in duty_grid
        ]
    )
    width = ChannelGeometry(shape=SHAPE).channel_width(1)
    flux0 = column_flux(results[0])  # duty 0 == the no-slip control
    lengths = [
        flow_gain_slip_length(column_flux(r), flux0, width) for r in results
    ]
    text = format_table(
        ["duty cycle", "slip length (spacings)", "flow gain (%)"],
        [
            (d, b, 100 * (6.0 * b / width))
            for d, b in zip(duty_grid, lengths)
        ],
        title=(
            "Effective slip vs. stripe duty cycle "
            "(period 8, amplitude 0.06 on / 0.0 off)"
        ),
        float_fmt="{:.3f}",
    )
    data: dict = {
        "duty": list(duty_grid),
        "slip_length": lengths,
        "trend": base.expected_trends()["duty"],
    }
    if not fast:
        period_grid = (4, 8, 16)
        period_results = run_all(
            [
                RunSpec(
                    config=channel_config(SHAPE, dataclasses.replace(base, period=p)),
                    phases=steps,
                )
                for p in period_grid
            ]
        )
        period_lengths = [
            flow_gain_slip_length(column_flux(r), flux0, width)
            for r in period_results
        ]
        text += "\n\n" + format_table(
            ["period (sites)", "slip length (spacings)"],
            list(zip(period_grid, period_lengths)),
            title="Effective slip vs. stripe period (duty 0.5)",
            float_fmt="{:.3f}",
        )
        data["period"] = list(period_grid)
        data["period_slip_length"] = period_lengths
    text += (
        "\n\nSlip grows with the hydrophobic stripe fraction: duty 0 is "
        "the no-slip control, duty 1 recovers the homogeneous channel "
        "(bit-identically — the registry's differential contract), and "
        "intermediate duty cycles interpolate.  At fixed coverage the "
        "slip also grows with the stripe period — the Philip / "
        "Lauga-Stone scaling: one wide slip stripe beats many narrow "
        "ones."
    )
    return Report(
        name="fig-pattern",
        title="Effective slip vs. slip patterning (patterned scenario)",
        text=text,
        data=data,
    )
