import pytest

from repro.core.history import PhaseTimeHistory
from repro.core.prediction import (
    HarmonicMeanPredictor,
    LastPhasePredictor,
    harmonic_mean,
)


def history_of(times):
    h = PhaseTimeHistory(capacity=max(10, len(times)))
    for t in times:
        h.record(t)
    return h


class TestHarmonicMean:
    def test_constant_series(self):
        assert harmonic_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_known_value(self):
        assert harmonic_mean([1.0, 2.0]) == pytest.approx(4.0 / 3.0)

    def test_below_arithmetic_mean(self):
        vals = [1.0, 2.0, 10.0]
        assert harmonic_mean(vals) < sum(vals) / len(vals)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            harmonic_mean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            harmonic_mean([1.0, 0.0])


class TestHarmonicMeanPredictor:
    def test_spike_resistance(self):
        """The paper's rationale: one huge sample barely moves the index."""
        p = HarmonicMeanPredictor()
        normal = p.predict(history_of([1.0] * 10))
        spiked = p.predict(history_of([1.0] * 9 + [100.0]))
        assert spiked < 1.25 * normal

    def test_persistent_slowness_detected(self):
        p = HarmonicMeanPredictor()
        slow = p.predict(history_of([3.0] * 10))
        assert slow == pytest.approx(3.0)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            HarmonicMeanPredictor().predict(PhaseTimeHistory())


class TestOtherPredictors:
    def test_last_phase_follows_spike(self):
        p = LastPhasePredictor()
        assert p.predict(history_of([1.0] * 9 + [100.0])) == 100.0

    def test_single_sample_all_agree(self):
        h = history_of([2.5])
        for p in (HarmonicMeanPredictor(), LastPhasePredictor()):
            assert p.predict(h) == pytest.approx(2.5)
