"""Streamwise-averaged effective slip (satellite of the scenario work).

The regression contract: for x-invariant physics (homogeneous walls)
``effective_slip_fraction`` must reproduce the historical single-plane
``slip_fraction(velocity_profile(...))`` **bit-for-bit** — the averaging
layer may not perturb today's published numbers.  For patterned walls
the per-plane values genuinely differ and the effective value is their
mean.
"""

from functools import partial

import numpy as np
import pytest

from repro.lbm.components import ComponentSpec
from repro.lbm.diagnostics import (
    apparent_slip_fraction,
    effective_slip_fraction,
    slip_fraction,
    streamwise_velocity_profiles,
    velocity_profile,
)
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.solver import LBMConfig, MulticomponentLBM
from repro.scenarios import (
    HomogeneousScenario,
    PatternedScenario,
    RoughScenario,
)

SHAPE = (12, 20)


def solver_for(scenario, shape=SHAPE, lattice=D2Q9) -> MulticomponentLBM:
    config = LBMConfig(
        geometry=ChannelGeometry(shape=shape),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=lattice,
        scenario=scenario,
        body_acceleration=(1e-6,) + (0.0,) * (len(shape) - 1),
    )
    solver = MulticomponentLBM(config)
    solver.run(60)
    return solver


@pytest.fixture(scope="module")
def homogeneous_solver():
    return solver_for(HomogeneousScenario(amplitude=0.06, decay_length=2.5))


@pytest.fixture(scope="module")
def patterned_solver():
    return solver_for(
        PatternedScenario(
            amplitude_hi=0.06, amplitude_lo=0.0, period=4, duty=0.5
        )
    )


def test_homogeneous_reproduces_single_plane_value_exactly(
    homogeneous_solver,
):
    historical = slip_fraction(velocity_profile(homogeneous_solver))
    effective = effective_slip_fraction(homogeneous_solver)
    assert effective == historical  # bitwise, not approx


def per_plane_slip(source, **where) -> np.ndarray:
    return streamwise_velocity_profiles(source, **where).measured(slip_fraction)


def test_homogeneous_planes_are_all_identical(homogeneous_solver):
    values = per_plane_slip(homogeneous_solver)
    assert values.shape == (SHAPE[0],)
    assert np.all(values == values[0])


def test_patterned_planes_vary_and_effective_is_their_mean(
    patterned_solver,
):
    values = per_plane_slip(patterned_solver)
    assert not np.all(values == values[0])
    assert effective_slip_fraction(patterned_solver) == float(values.mean())


def test_patterned_effective_sits_between_the_extremes(patterned_solver):
    values = per_plane_slip(patterned_solver)
    effective = effective_slip_fraction(patterned_solver)
    assert values.min() < effective < values.max()


# ------------------------------------------- one extraction, many measures
#
# ``streamwise_velocity_profiles`` reads every plane's line in one pass
# (one ``wall_coordinate`` field, one ``velocity()``); the measures then
# run on that block.  The reference below is the historical
# spelling: one public single-plane ``velocity_profile`` call per plane
# and per measure.


def per_plane_effective(solver, measure, **where):
    values = np.asarray(
        [
            measure(velocity_profile(solver, x_index=i, **where))
            for i in range(solver.config.geometry.shape[0])
        ]
    )
    return float(values[0] if np.all(values == values[0]) else values.mean())


def value_or_refusal(fn):
    """The float *fn* returns, or the message of the ``ValueError`` a
    measure refuses an undeveloped profile with."""
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def rough_solver():
    return solver_for(
        RoughScenario(
            amplitude=0.06, decay_length=2.5, rms=0.8, max_height=2, seed=11
        )
    )


@pytest.fixture(scope="module")
def channel_3d_solver():
    return solver_for(
        HomogeneousScenario(amplitude=0.06, decay_length=2.5),
        shape=(6, 20, 8),
        lattice=D3Q19,
    )


@pytest.mark.parametrize(
    "fixture, where",
    [
        ("homogeneous_solver", {}),
        ("rough_solver", {}),
        ("patterned_solver", {}),
        ("channel_3d_solver", {"other_index": 2}),
        ("channel_3d_solver", {"axis": 2, "other_index": 5}),
    ],
)
def test_shared_lines_equal_the_per_plane_loop(fixture, where, request):
    solver = request.getfixturevalue(fixture)
    apparent = partial(apparent_slip_fraction, boundary_layer=4.0)
    lines = streamwise_velocity_profiles(solver, **where)
    assert len(lines) == solver.config.geometry.shape[0]
    for i, line in enumerate(lines):
        single = velocity_profile(solver, x_index=i, **where)
        assert np.array_equal(line.positions, single.positions)
        assert np.array_equal(line.values, single.values)
    for measure in (slip_fraction, apparent):
        expected = value_or_refusal(
            lambda: per_plane_effective(solver, measure, **where)
        )
        # ==, not approx: the same arithmetic on the same 1-D arrays.
        assert expected == value_or_refusal(
            lambda: effective_slip_fraction(lines, measure=measure)
        )
        assert expected == value_or_refusal(
            lambda: effective_slip_fraction(solver, measure=measure, **where)
        )
    assert np.array_equal(lines.measured(slip_fraction), per_plane_slip(solver, **where))


def test_wall_coordinate_is_built_once_per_extraction(
    rough_solver, monkeypatch
):
    geometry = type(rough_solver.config.geometry)
    calls = []
    original = geometry.wall_coordinate

    def counting(self, axis):
        calls.append(axis)
        return original(self, axis)

    monkeypatch.setattr(geometry, "wall_coordinate", counting)
    effective_slip_fraction(rough_solver)
    assert calls == [1]  # was: once per streamwise plane
