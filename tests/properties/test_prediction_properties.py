"""Property-based tests of the load-index predictors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import PhaseTimeHistory
from repro.core.prediction import (
    HarmonicMeanPredictor,
    LastPhasePredictor,
    harmonic_mean,
)

positive_times = st.lists(
    st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=10,
)


def history_of(times):
    h = PhaseTimeHistory(capacity=len(times))
    for t in times:
        h.record(t)
    return h


@given(times=positive_times)
@settings(max_examples=100, deadline=None)
def test_harmonic_mean_bounded_by_extremes(times):
    hm = harmonic_mean(times)
    assert min(times) <= hm * (1 + 1e-9)
    assert hm <= max(times) * (1 + 1e-9)


@given(times=positive_times)
@settings(max_examples=100, deadline=None)
def test_harmonic_leq_arithmetic(times):
    h = history_of(times)
    hm = HarmonicMeanPredictor().predict(h)
    am = sum(times) / len(times)
    assert hm <= am * (1 + 1e-9)


@given(times=positive_times, scale=st.floats(0.01, 100.0))
@settings(max_examples=100, deadline=None)
def test_harmonic_mean_scale_equivariant(times, scale):
    hm = harmonic_mean(times)
    scaled = harmonic_mean([t * scale for t in times])
    assert scaled == pytest.approx(hm * scale, rel=1e-9)


@given(
    base=st.floats(0.1, 10.0),
    spike=st.floats(10.0, 1e6),
    k=st.integers(2, 10),
)
@settings(max_examples=100, deadline=None)
def test_single_spike_bounded_influence(base, spike, k):
    """A single spike can inflate the harmonic mean by at most a factor
    k/(k-1) regardless of the spike's size — the paper's laziness claim."""
    clean = harmonic_mean([base] * k)
    spiked = harmonic_mean([base] * (k - 1) + [spike])
    assert spiked <= clean * k / (k - 1) + 1e-12


@given(times=positive_times)
@settings(max_examples=50, deadline=None)
def test_predictors_positive(times):
    h = history_of(times)
    assert HarmonicMeanPredictor().predict(h) > 0
    assert LastPhasePredictor().predict(h) > 0
