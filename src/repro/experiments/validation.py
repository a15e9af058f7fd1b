"""Soundness validation experiments (not in the paper, but prerequisites
for trusting the reproduction):

- the LBM solver against the analytic plane-Poiseuille solution;
- the parallel driver against the sequential solver, bitwise, including
  runs where filtered remapping migrates planes mid-flight.
"""

from __future__ import annotations

import numpy as np

from repro.api import RunSpec
from repro.api import run as api_run
from repro.core.policies import RemappingConfig
from repro.experiments.report import Report
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.diagnostics import velocity_profile
from repro.lbm.solver import LBMConfig
from repro.util.tables import format_table


def poiseuille_error(
    *, ny: int = 34, steps: int = 3000, accel: float = 1e-5
) -> float:
    """Max relative error of the simulated profile vs. the analytic
    parabola u(y) = a y (H - y) / (2 nu)."""
    geo = ChannelGeometry(shape=(12, ny), wall_axes=(1,))
    comp = ComponentSpec("water", tau=1.0, rho_init=1.0)
    cfg = LBMConfig(
        geometry=geo,
        components=(comp,),
        g_matrix=np.zeros((1, 1), dtype=np.float64),
        lattice=D2Q9,
        body_acceleration=(accel, 0.0),
    )
    prof = velocity_profile(api_run(RunSpec(config=cfg, phases=steps)).solver())
    width = geo.channel_width(1)
    analytic = accel / (2.0 * comp.viscosity) * prof.positions * (width - prof.positions)
    return float(np.abs(prof.values - analytic).max() / analytic.max())


def parallel_equivalence(
    *, n_ranks: int = 4, phases: int = 40, with_migration: bool = True
) -> bool:
    """True when the parallel run's global field is bitwise equal to the
    sequential solver's (optionally with a synthetic slow rank forcing
    migration through the filtered scheme)."""
    geo = ChannelGeometry(shape=(20, 14), wall_axes=(1,))
    comps = (
        ComponentSpec("water", tau=1.0, rho_init=1.0),
        ComponentSpec("air", tau=1.0, rho_init=0.03),
    )
    cfg = LBMConfig(
        geometry=geo,
        components=comps,
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        body_acceleration=(1e-6, 0.0),
    )
    sequential = api_run(RunSpec(config=cfg, phases=phases))

    load_fn = None
    policy = "no-remap"
    remap_config = None
    if with_migration:
        policy = "filtered"
        remap_config = RemappingConfig(interval=5, history=5)

        def load_fn(rank: int, phase: int, points: int) -> float:
            t = points * 1e-6
            return t / 0.35 if rank == 1 else t

    result = api_run(
        RunSpec(
            config=cfg,
            phases=phases,
            ranks=n_ranks,
            policy=policy,
            remap_config=remap_config,
            load_time_fn=load_fn,
        )
    )
    return bool(np.array_equal(result.f, sequential.f))


def run(fast: bool = False) -> Report:
    # The profile needs ~H^2/nu steps to develop; fast mode uses a
    # narrower channel instead of an under-converged wide one.
    if fast:
        err = poiseuille_error(ny=18, steps=1600)
    else:
        err = poiseuille_error()
    eq_static = parallel_equivalence(with_migration=False)
    eq_migrating = parallel_equivalence(with_migration=True)
    rows = [
        ("Poiseuille max relative error", f"{err:.4f}", "< 0.02"),
        ("parallel == sequential (static)", str(eq_static), "True"),
        ("parallel == sequential (migrating)", str(eq_migrating), "True"),
    ]
    text = format_table(["check", "value", "expectation"], rows)
    return Report(
        name="validation",
        title="Solver and parallel-substrate validation",
        text=text,
        data={
            "poiseuille_error": err,
            "parallel_static": eq_static,
            "parallel_migrating": eq_migrating,
        },
    )
