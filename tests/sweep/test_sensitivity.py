"""Sensitivity: monotone slip response to the homogeneous amplitude,
and the variance (eta-squared) decomposition."""

import dataclasses

import numpy as np
import pytest

from repro.api import RunSpec, run_batch
from repro.lbm.diagnostics import effective_slip_fraction
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig
from repro.scenarios import HomogeneousScenario
from repro.sweep import variance_sensitivity


def base_config() -> LBMConfig:
    return LBMConfig(
        geometry=ChannelGeometry(shape=(10, 14)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        scenario=HomogeneousScenario(amplitude=0.06, decay_length=2.5),
        body_acceleration=(1e-6, 0.0),
    )


def test_oat_amplitude_response_is_monotone():
    # The amplitude prior's mid-stratum quantiles, other fields as in the
    # base scenario, as one batch of runs.
    amplitudes = 0.02 + 0.1 * (np.arange(4) + 0.5) / 4
    specs = [
        RunSpec(
            config=dataclasses.replace(
                base_config(),
                scenario=HomogeneousScenario(amplitude=float(a), decay_length=2.5),
            ),
            phases=40,
        )
        for a in amplitudes
    ]
    slips = [effective_slip_fraction(r) for r in run_batch(specs)]
    # a stronger hydrophobic repulsion means more slip, at every level
    assert np.all(np.diff(slips) > 0)


def test_variance_sensitivity_finds_the_dominant_parameter():
    rng = np.random.default_rng(5)
    x = rng.random(64)
    noise = rng.random(64)
    samples = [
        {"driver": float(a), "bystander": float(b)}
        for a, b in zip(x, noise)
    ]
    values = 3.0 * x + 0.05 * noise
    eta2 = variance_sensitivity(samples, values)
    assert eta2["driver"] > 0.8
    assert eta2["bystander"] < 0.3
    assert all(0.0 <= v <= 1.0 for v in eta2.values())


def test_variance_sensitivity_flat_response_is_zero():
    samples = [{"p": float(i)} for i in range(10)]
    eta2 = variance_sensitivity(samples, [1.0] * 10)
    assert eta2["p"] == 0.0


def test_variance_sensitivity_validates_shapes():
    with pytest.raises(ValueError):
        variance_sensitivity([], [])
    with pytest.raises(ValueError):
        variance_sensitivity([{"p": 1.0}], [1.0, 2.0])
