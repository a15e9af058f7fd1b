"""Seeded input generation: every config, spec and arrival time a
workload feeds the program is built here from ``--seed`` and the frozen
sizes below.  The program itself receives only the generated inputs.

Imported by the workload child only (it needs numpy and ``repro``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.api import RunSpec
from repro.core.policies import RemappingConfig
from repro.lbm.components import ComponentSpec
from repro.lbm.forces import WallForceSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.solver import LBMConfig
from repro.scenarios import HomogeneousScenario, PatternedScenario, RoughScenario
from repro.sweep import Discrete, SweepParameter, SweepSpec, Uniform

#: Frozen sizes (see bench/README.md for how each was chosen).  The
#: smoke column exists for ``bench/tests`` only; no number taken at
#: smoke size is ever compared with one taken at full size.
SIZES = {
    "full": {
        # The paper's 400x200x20 scaled (1/4, 1/4, 1/2): 50 000 points,
        # 15.2 MB of populations per buffer >> the 4 MiB L2.
        "channel_shape": (100, 50, 10),
        "channel_phases": 40,
        "warmup_phases": 5,
        "nonded_phases": 100,
        "nonded_ckpt_every": 50,
        "serve_shape": (32, 48),
        "serve_phases": 50,
        "serve_rate": 10.0,
        "sweep_shape": (12, 18),
        "sweep_phases": 6,
    },
    "smoke": {
        "channel_shape": (16, 10, 6),
        "channel_phases": 6,
        "warmup_phases": 2,
        "nonded_phases": 20,
        "nonded_ckpt_every": 10,
        "serve_shape": (12, 18),
        "serve_phases": 6,
        "serve_rate": 40.0,
        "sweep_shape": (12, 18),
        "sweep_phases": 6,
    },
}

SERVE_DUPLICATES = 0.40
SERVE_AMPLITUDE = (0.02, 0.10)
SWEEP_SAMPLES = 6
SWEEP_REPEATS = 3

_WATER_AIR = (
    ComponentSpec("water", tau=1.0, rho_init=1.0),
    ComponentSpec("air", tau=1.0, rho_init=0.03),
)
_COUPLING = np.array([[0.0, 0.9], [0.9, 0.0]])


def channel_config(shape: tuple[int, int, int]) -> LBMConfig:
    """The paper's D3Q19 water/air hydrophobic channel (deterministic:
    the three channel workloads take nothing from the seed)."""
    return LBMConfig(
        geometry=ChannelGeometry(shape=shape, wall_axes=(1, 2)),
        components=_WATER_AIR,
        g_matrix=_COUPLING,
        lattice=D3Q19,
        wall_force=WallForceSpec(amplitude=0.1, decay_length=2.5),
        body_acceleration=(2e-7, 0.0, 0.0),
        backend="fused",
    )


def slow_node_load(slow_rank: int = 1, available: float = 0.3, us_per_point: float = 0.6):
    """``load_time_fn`` emulating the paper's disturbance: a competing
    job holds ``1 - available`` of *slow_rank*'s node.  The slow rank
    sleeps out the extra time, so the emulation costs no CPU on a shared
    box and the load indices -- hence the plane counts -- repeat exactly."""
    import time

    def load_time(rank: int, phase: int, points: int) -> float:
        t = points * us_per_point * 1e-6
        if rank != slow_rank:
            return t
        time.sleep(t / available - t)
        return t / available

    return load_time


def nonded_remap_config() -> RemappingConfig:
    return RemappingConfig(interval=10, history=10)


def small_channel_config(shape: tuple[int, int], *, wall_force=None, scenario=None) -> LBMConfig:
    """The D2Q9 water/air microchannel of the serve and sweep tiers."""
    return LBMConfig(
        geometry=ChannelGeometry(shape=shape, wall_axes=(1,)),
        components=_WATER_AIR,
        g_matrix=_COUPLING,
        lattice=D2Q9,
        wall_force=wall_force,
        scenario=scenario,
        body_acceleration=(1e-6, 0.0),
    )


def serve_spec(shape: tuple[int, int], phases: int, amplitude: float) -> RunSpec:
    wall = WallForceSpec(amplitude=float(amplitude), decay_length=2.0)
    return RunSpec(config=small_channel_config(shape, wall_force=wall), phases=phases)


@dataclass(frozen=True)
class ServeStream:
    """An open-loop job stream: ``specs[i]`` is due ``due[i]`` seconds
    after the stream starts."""

    specs: list[RunSpec]
    due: np.ndarray
    n_unique: int


def serve_stream(
    seed: int, seconds: float, rate: float, shape: tuple[int, int], phases: int
) -> ServeStream:
    """Seeded Poisson arrivals at *rate* jobs/s for *seconds*;
    ``SERVE_DUPLICATES`` of the jobs are exact repeats of a uniformly
    drawn earlier job, the rest fresh wall-force amplitudes.

    The job and duplicate counts are fixed (``rate * seconds`` jobs, of
    which 40 % repeat) and only their arrangement is drawn: arrival times
    are the order statistics of uniform draws -- a Poisson process
    conditioned on its count.  Two seeds then offer the same load and
    differ in when it arrives and which jobs repeat, so the median
    latency does not move with a seed's luck in duplicates."""
    rng = np.random.default_rng([seed, 1])
    n_jobs = max(2, round(rate * seconds))
    due = np.sort(rng.uniform(0.0, seconds, size=n_jobs))
    n_dup = round(SERVE_DUPLICATES * n_jobs)
    is_dup = np.zeros(n_jobs, dtype=bool)
    is_dup[1 + rng.choice(n_jobs - 1, size=n_dup, replace=False)] = True
    lo, hi = SERVE_AMPLITUDE
    specs: list[RunSpec] = []
    for dup in is_dup:
        if dup:
            specs.append(specs[int(rng.integers(len(specs)))])
        else:
            specs.append(serve_spec(shape, phases, lo + (hi - lo) * rng.random()))
    return ServeStream(specs=specs, due=due, n_unique=n_jobs - n_dup)


def burst_specs(seed: int, n: int, shape: tuple[int, int], phases: int) -> list[RunSpec]:
    """*n* unique serve specs (warm-up and the burst-capacity probe);
    amplitudes sit outside the measured range so they never share a
    cache entry with the stream."""
    rng = np.random.default_rng([seed, 2])
    return [serve_spec(shape, phases, a) for a in 0.11 + 0.05 * rng.random(n)]


def sweep_specs(seed: int, shape: tuple[int, int], phases: int) -> dict[str, SweepSpec]:
    """The homogeneous / rough / patterned sweeps of ``BENCH_sweep.json``
    (6 samples x 3 repeats = 18 submissions each), with the sampler seed
    and the rough wall's RNG seed derived from *seed*."""
    common = dict(phases=phases, n_samples=SWEEP_SAMPLES, repeats=SWEEP_REPEATS, seed=seed)
    amplitude = (SweepParameter("amplitude", Uniform(0.02, 0.1)),)
    return {
        "homogeneous": SweepSpec(
            base_config=small_channel_config(
                shape, scenario=HomogeneousScenario(amplitude=0.05, decay_length=2.0)
            ),
            parameters=amplitude,
            sampler="lhs",
            **common,
        ),
        "rough": SweepSpec(
            base_config=small_channel_config(
                shape,
                scenario=RoughScenario(
                    amplitude=0.05, decay_length=2.0, rms=0.8, max_height=2, seed=seed % 1000 + 7
                ),
            ),
            parameters=amplitude,
            sampler="lhs",
            **common,
        ),
        "patterned": SweepSpec(
            base_config=small_channel_config(
                shape, scenario=PatternedScenario(amplitude_hi=0.05, duty=0.5, decay_length=2.0)
            ),
            parameters=(
                SweepParameter("duty", Discrete((0.25, 0.5, 0.75))),
                SweepParameter("amplitude_hi", Discrete((0.04, 0.08))),
            ),
            sampler="mc",
            **common,
        ),
    }


def sweep_run_specs(spec: SweepSpec) -> list[RunSpec]:
    """One RunSpec per distinct sample, as ``run_sweep(via="serve")``
    submits them (the base of ``sweep.fixed_overhead_s``)."""
    return [RunSpec(config=c, phases=spec.phases) for c in spec.configs()]


def with_phases(spec: RunSpec, phases: int) -> RunSpec:
    return dataclasses.replace(spec, phases=phases)
