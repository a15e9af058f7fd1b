"""The homogeneous scenario's regression contract: attaching
``HomogeneousScenario(a, λ)`` to a config is **bit-identical** to the
direct ``wall_force=WallForceSpec(a, λ)`` path — on the single solver
(every kernel backend) and on the parallel driver (every transport).
The scenario layer must add zero floating-point drift to today's
physics.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import RunSpec, run
from repro.lbm.components import ComponentSpec
from repro.lbm.forces import WallForceSpec, wall_force_field
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig, MulticomponentLBM
from repro.scenarios import HomogeneousScenario

AMPLITUDE = 0.08
DECAY = 2.5


def config(*, scenario: bool, backend: str | None = None) -> LBMConfig:
    extra = {}
    if scenario:
        extra["scenario"] = HomogeneousScenario(
            amplitude=AMPLITUDE, decay_length=DECAY
        )
    else:
        extra["wall_force"] = WallForceSpec(
            amplitude=AMPLITUDE, decay_length=DECAY
        )
    if backend is not None:
        extra["backend"] = backend
    return LBMConfig(
        geometry=ChannelGeometry(shape=(12, 14)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        body_acceleration=(1e-6, 0.0),
        **extra,
    )


def test_wall_accel_is_the_exact_wall_force_field():
    geo = ChannelGeometry(shape=(12, 14))
    scenario = HomogeneousScenario(amplitude=AMPLITUDE, decay_length=DECAY)
    direct = wall_force_field(geo, scenario.wall_force_spec())
    assert np.array_equal(scenario.wall_accel(geo), direct)


@pytest.mark.parametrize("backend", [None, "fused"])
def test_bit_identical_on_the_single_solver(backend):
    via_scenario = MulticomponentLBM(config(scenario=True, backend=backend))
    via_force = MulticomponentLBM(config(scenario=False, backend=backend))
    via_scenario.run(25)
    via_force.run(25)
    assert np.array_equal(via_scenario.f, via_force.f)
    assert np.array_equal(via_scenario.rho, via_force.rho)


@pytest.mark.parametrize("transport", ["threads", "processes"])
def test_bit_identical_on_the_parallel_driver(transport):
    kwargs = {"ranks": 2, "transport": transport, "phases": 8}
    via_scenario = run(RunSpec(config=config(scenario=True), **kwargs))
    via_force = run(RunSpec(config=config(scenario=False), **kwargs))
    assert np.array_equal(via_scenario.f, via_force.f)


def test_parallel_matches_single_rank():
    single = run(RunSpec(config=config(scenario=True), phases=8))
    parallel = run(RunSpec(config=config(scenario=True), ranks=2, phases=8))
    assert np.array_equal(single.f, parallel.f)


def test_is_x_invariant_and_keeps_base_geometry():
    scenario = HomogeneousScenario(amplitude=AMPLITUDE, decay_length=DECAY)
    geo = ChannelGeometry(shape=(12, 14))
    assert scenario.x_invariant and not scenario.alters_geometry
    assert np.array_equal(scenario.solid_mask(geo), geo.solid_mask())
