"""The paper's water/air microchannel, stated once.

Figures 6 and 7, ext-slip-sweep, ext-resolution and fig-pattern run this
channel as :class:`~repro.api.RunSpec` lists through
:func:`repro.api.run_batch`, which health-checks every run (a diverged
one raises :class:`~repro.lbm.loop.NumericalInstability`).  The paper's
400 x 200 x 20 grid (:data:`PAPER`) needs ~500k phases to reach steady state; :data:`DEFAULT`
is a scaled 3-D channel in the same aspect regime (thin in z, wide in y)
that runs in about a minute on one core, and :data:`FAST` a 2-D
cross-section whose width and phase count let the Poiseuille profile
develop (momentum diffusion time ~ H^2/nu; a wider channel with too few
phases still looks plug-like and fakes slip).
"""

from __future__ import annotations

import numpy as np

from repro.api import RunResult, RunSpec, run_batch, spec_fingerprint
from repro.lbm.components import water_air_pair
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.solver import LBMConfig
from repro.lbm.units import PAPER_GRID_SHAPE
from repro.scenarios import HomogeneousScenario, Scenario

#: ``(shape, phases, wall-force amplitude)`` of the three channels.
DEFAULT = ((24, 80, 10), 2500, 0.2)
FAST = ((16, 42), 6000, 0.1)
PAPER = (PAPER_GRID_SHAPE, 20000, 0.2)  # hours on one core


def channel_config(shape: tuple[int, ...], scenario: Scenario | None = None) -> LBMConfig:
    """Water/air channel of *shape* (D2Q9 or D3Q19 by its length) with
    repulsive coupling g = 0.9, a body force along x and *scenario*'s
    walls (``None``: the no-force control)."""
    ndim = len(shape)
    return LBMConfig(
        geometry=ChannelGeometry(shape=shape),
        components=water_air_pair(),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D3Q19 if ndim == 3 else D2Q9,
        scenario=scenario,
        body_acceleration=(2e-7,) + (0.0,) * (ndim - 1),
    )


def slip_pair(
    shape: tuple[int, ...], phases: int, amplitude: float = 0.2, decay_length: float = 2.5
) -> list[RunSpec]:
    """``[forced, control]``: the hydrophobic channel, then the same
    channel without wall forces."""
    wall = HomogeneousScenario(amplitude=amplitude, decay_length=decay_length)
    return [
        RunSpec(config=channel_config(shape, wall), phases=phases),
        RunSpec(config=channel_config(shape), phases=phases),
    ]


def run_slip_pair(fast: bool, cache: dict | None = None) -> list[RunResult]:
    """The :data:`FAST` or :data:`DEFAULT` pair's results, run once per
    *cache* (keyed by the specs' fingerprints): Figures 6 and 7 read the
    same pair."""
    pair = slip_pair(*(FAST if fast else DEFAULT))
    cache = {} if cache is None else cache
    key = tuple(spec_fingerprint(spec) for spec in pair)
    if key not in cache:
        cache[key] = run_batch(pair)
    return cache[key]
