"""The one-pass slip measure over every streamwise plane.

``StreamwiseLines.measured(slip_fraction)`` measures all planes of a
cross-section at once.  Each plane's value must carry the bits of the
historical per-plane measure — the single-plane ``velocity_profile``
handed to the scalar formula, in Python floats — on every wall
scenario, lattice and cross-section, from a run result and from a
solver alike.  The apparent (core-fit) measure still runs plane by
plane and stops at the first plane it refuses.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

import repro.sweep.engine as engine
from repro.api import RunSpec, run
from repro.lbm.components import ComponentSpec
from repro.lbm.diagnostics import (
    Profile,
    StreamwiseLines,
    apparent_slip_fraction,
    effective_slip_fraction,
    slip_fraction,
    streamwise_velocity_profiles,
    velocity_profile,
)
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.solver import LBMConfig
from repro.scenarios import HomogeneousScenario, PatternedScenario, RoughScenario
from repro.sweep import Discrete, SweepParameter, SweepSpec, run_sweep

SCENARIOS = {
    "homogeneous": HomogeneousScenario(amplitude=0.06, decay_length=2.5),
    "rough": RoughScenario(amplitude=0.06, decay_length=2.5, rms=0.8, max_height=2, seed=11),
    "patterned": PatternedScenario(amplitude_hi=0.06, amplitude_lo=0.0, period=4, duty=0.5),
}
LATTICES = {"D2Q9": (D2Q9, (8, 20)), "D3Q19": (D3Q19, (6, 14, 8))}
#: The cross-sections callers measure: the defaults everywhere, and the
#: off-centre line and the other wall axis of a 3-D channel.
WHERE = {
    "D2Q9": [{}],
    "D3Q19": [{}, {"other_index": 2}, {"axis": 2, "other_index": 5}],
}


def config(scenario: str, lattice: str) -> LBMConfig:
    lat, shape = LATTICES[lattice]
    return LBMConfig(
        geometry=ChannelGeometry(shape=shape),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=lat,
        scenario=SCENARIOS[scenario],
        body_acceleration=(1e-6,) + (0.0,) * (len(shape) - 1),
    )


def historical_slip(profile: Profile) -> float:
    """The per-plane measure as it was computed before the one-pass
    version: Python floats on one profile."""
    if profile.values.size < 3:
        raise ValueError("profile too short to measure slip")
    u0 = float(np.abs(profile.values).max())
    if u0 == 0.0:
        raise ValueError("zero free-stream velocity")
    d0, d1 = profile.positions[:2].tolist()
    u_first, u_second = profile.values[:2].tolist()
    return (u_first - (u_second - u_first) / (d1 - d0) * d0) / u0


def bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in np.asarray(values, dtype=np.float64).ravel()]


@pytest.fixture(scope="module")
def results():
    return {
        (scenario, lattice): run(RunSpec(config=config(scenario, lattice), phases=60))
        for scenario in SCENARIOS
        for lattice in LATTICES
    }


CASES = [
    (scenario, lattice, where)
    for scenario in SCENARIOS
    for lattice in LATTICES
    for where in WHERE[lattice]
]


@pytest.mark.parametrize("source", ["result", "solver"])
@pytest.mark.parametrize("scenario, lattice, where", CASES)
def test_one_pass_equals_the_per_plane_profiles(results, scenario, lattice, where, source):
    result = results[scenario, lattice]
    src = result if source == "result" else result.solver()
    nx = result.config.geometry.shape[0]
    expected = [historical_slip(velocity_profile(src, x_index=x, **where)) for x in range(nx)]
    measured = streamwise_velocity_profiles(src, **where).measured(slip_fraction)
    assert bits(measured) == bits(expected)
    mean = expected[0] if all(v == expected[0] for v in expected) else np.mean(expected)
    assert bits([effective_slip_fraction(src, **where)]) == bits([mean])
    # and the single-profile measure is the same pass on one row
    assert bits([slip_fraction(velocity_profile(src, **where))]) == bits(
        [historical_slip(velocity_profile(src, **where))]
    )


def test_rough_planes_differ_and_lose_wall_nodes(results):
    lines = streamwise_velocity_profiles(results["rough", "D2Q9"])
    assert len(set(lines.fluid.sum(axis=1))) > 1
    assert len({b for b in bits(lines.measured(slip_fraction))}) > 1


def test_the_first_plane_that_cannot_be_measured_raises():
    coord = np.arange(6) + 0.5
    values = np.ones((3, 6))
    values[1] = 0.0
    fluid = np.ones((3, 6), dtype=bool)
    fluid[2, 2:] = False  # plane 2 keeps two nodes: too short as well
    with pytest.raises(ValueError, match="zero free-stream"):
        StreamwiseLines(coord, values, fluid).measured(slip_fraction)
    fluid[0, 2:] = False
    with pytest.raises(ValueError, match="too short"):
        StreamwiseLines(coord, values, fluid).measured(slip_fraction)


def concave_then_flat(k: int, nx: int = 6, n: int = 20) -> StreamwiseLines:
    """Planes 0..k-1 carry developed (concave) profiles, plane k a flat
    one the core fit refuses, the planes after it concave again."""
    coord = np.arange(n) + 0.5
    values = np.empty((nx, n))
    for x in range(nx):
        values[x] = 1.0 - (1.0 + 0.1 * x) * ((coord - n / 2) / n) ** 2
    values[k] = 0.5
    return StreamwiseLines(coord, values, np.ones((nx, n), dtype=bool))


@pytest.mark.parametrize("k", [0, 3])
def test_an_apparent_fit_failing_on_plane_k_reads_no_later_plane(k):
    lines = concave_then_flat(k)
    fitted = []

    def apparent(profile: Profile) -> float:
        fitted.append(profile.values.copy())
        return apparent_slip_fraction(profile, boundary_layer=4.0)

    with pytest.raises(ValueError, match="not concave"):
        effective_slip_fraction(lines, measure=apparent)
    assert len(fitted) == k + 1
    assert np.array_equal(fitted[-1], lines.values[k])
    assert np.isfinite(effective_slip_fraction(lines))


def test_an_apparent_fit_failing_on_plane_k_leaves_the_sample_without_one(monkeypatch):
    lines = concave_then_flat(3)
    monkeypatch.setattr(engine, "streamwise_velocity_profiles", lambda result: lines)
    spec = SweepSpec(
        base_config=config("homogeneous", "D2Q9"),
        phases=2,
        parameters=(SweepParameter("amplitude", Discrete((0.05,))),),
        n_samples=1,
        seed=1,
    )
    (sample,) = run_sweep(spec).samples
    assert sample.apparent_slip is None
    assert sample.slip == effective_slip_fraction(lines)


def historical_apparent(profile: Profile, boundary_layer: float) -> float:
    """The core fit as it was evaluated with ``np.polyval``."""
    d, u = profile.positions, profile.values
    width = float(d.max()) + 0.5
    core = (d >= boundary_layer) & (d <= width - boundary_layer)
    coef = np.polyfit(d[core], u[core], 2)
    apex = -coef[1] / (2.0 * coef[0])
    return float(np.polyval(coef, 0.0)) / float(np.polyval(coef, apex))


def test_the_core_fit_keeps_its_bits():
    lines = concave_then_flat(5)
    for x in range(5):
        profile = lines[x]
        assert bits([apparent_slip_fraction(profile, boundary_layer=4.0)]) == bits(
            [historical_apparent(profile, 4.0)]
        )
