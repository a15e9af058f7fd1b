"""Patterned stripes: the duty=1 bitwise collapse to the homogeneous
wall, stripe geometry, parallel-driver equivalence, and validation."""

import dataclasses

import numpy as np
import pytest

from repro.api import RunSpec, execute_parallel, run
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig, MulticomponentLBM
from repro.scenarios import HomogeneousScenario, PatternedScenario

GEO = ChannelGeometry(shape=(12, 14))


def config(scenario) -> LBMConfig:
    return LBMConfig(
        geometry=GEO,
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        scenario=scenario,
        body_acceleration=(1e-6, 0.0),
    )


def test_duty_one_collapses_bitwise_to_the_homogeneous_wall():
    striped = PatternedScenario(
        amplitude_hi=0.06, amplitude_lo=0.0, period=4, duty=1.0,
        decay_length=2.5,
    )
    flat = HomogeneousScenario(amplitude=0.06, decay_length=2.5)
    assert np.array_equal(striped.wall_accel(GEO), flat.wall_accel(GEO))
    a = MulticomponentLBM(config(striped))
    b = MulticomponentLBM(config(flat))
    a.run(20)
    b.run(20)
    assert np.array_equal(a.f, b.f)


def test_duty_zero_with_zero_lo_is_force_free():
    off = PatternedScenario(
        amplitude_hi=0.06, amplitude_lo=0.0, period=4, duty=0.0
    )
    assert not off.wall_accel(GEO).any()


def test_modulation_selects_the_advertised_stripes():
    scenario = PatternedScenario(
        amplitude_hi=0.5, amplitude_lo=0.125, period=4, duty=0.5
    )
    mod = scenario.modulation(8)
    assert mod.tolist() == [0.5, 0.5, 0.125, 0.125] * 2


def test_phase_rolls_the_pattern():
    base = PatternedScenario(amplitude_hi=0.5, amplitude_lo=0.0, period=4,
                             duty=0.5, phase=0)
    rolled = dataclasses.replace(base, phase=1)
    assert rolled.modulation(8).tolist() == np.roll(
        base.modulation(8), -1
    ).tolist()


def test_force_varies_along_the_flow_axis():
    scenario = PatternedScenario(
        amplitude_hi=0.06, amplitude_lo=0.0, period=4, duty=0.5
    )
    accel = scenario.wall_accel(GEO)
    assert not np.array_equal(accel[:, 0], accel[:, 2])
    assert not scenario.x_invariant


def test_streamwise_walls_are_rejected():
    # The geometry layer itself forbids walls on the periodic flow axis —
    # the invariant the streamwise modulation relies on.
    with pytest.raises(ValueError, match="axis 0"):
        ChannelGeometry(shape=(12, 14), wall_axes=(0,))


@pytest.mark.parametrize("decomp,ranks", [("auto", 3)])
def test_parallel_driver_matches_sequential_bitwise(decomp, ranks):
    # The x-varying pattern is sliced per slab, so the scenario runs on
    # the parallel driver bit-identical to the sequential solver.
    cfg = config(PatternedScenario(amplitude_hi=0.06, duty=0.5))
    seq = MulticomponentLBM(cfg)
    seq.run(12)
    spec = RunSpec(config=cfg, phases=12, decomp=decomp, ranks=ranks)
    assert np.array_equal(run(spec).f, seq.f)
    assert len(execute_parallel(spec)) == ranks


@pytest.mark.parametrize(
    "bad",
    [
        {"duty": -0.1},
        {"duty": 1.5},
        {"period": 0},
        {"amplitude_hi": -0.2},
        {"decay_length": 0.0},
    ],
)
def test_parameter_validation(bad):
    with pytest.raises((ValueError, TypeError)):
        PatternedScenario(**bad)
