"""Load-index predictors.

A predictor maps a node's recent phase times to the *predicted time* of the
next phase — the load index exchanged between neighbours.  The paper's
choice is the **harmonic mean** of the last K phase times:

    T_pred = K / (1/t_1 + 1/t_2 + ... + 1/t_K)

The harmonic mean is dominated by the *small* samples, so a single load
spike (one huge t_i) barely moves it: "if there is a load spike during the
last phase, no migration will be made unless this machine is really slow
for the last phases".  The alternatives here (last-phase, arithmetic mean,
exponentially weighted) exist for the ablation benchmarks: last-phase
prediction is what causes the paper's "migration oscillation".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.core.history import PhaseTimeHistory
from repro.util.validation import check_in_range


class Predictor(ABC):
    """Maps a phase-time history to the predicted next-phase time."""

    @abstractmethod
    def predict(self, history: PhaseTimeHistory) -> float:
        """Predicted time for the next phase; raises ``ValueError`` on an
        empty history (callers must not remap before any phase ran)."""

    def _require_samples(self, history: PhaseTimeHistory) -> list[float]:
        times = history.times()
        if not times:
            raise ValueError("cannot predict from an empty history")
        return times


class HarmonicMeanPredictor(Predictor):
    """The paper's filter: harmonic mean of the last K phase times."""

    def predict(self, history: PhaseTimeHistory) -> float:
        times = self._require_samples(history)
        return len(times) / sum(1.0 / t for t in times)


class LastPhasePredictor(Predictor):
    """Naive predictor: the most recent phase time (known to oscillate)."""

    def predict(self, history: PhaseTimeHistory) -> float:
        return self._require_samples(history)[-1]


class ArithmeticMeanPredictor(Predictor):
    """Plain average — reacts to spikes proportionally to their size."""

    def predict(self, history: PhaseTimeHistory) -> float:
        times = self._require_samples(history)
        return sum(times) / len(times)


class ExponentialPredictor(Predictor):
    """Exponentially weighted moving average with weight *alpha* on the most
    recent sample (the "give more weight to recent data" style of Yang,
    Foster & Schopf that the paper argues against for this workload)."""

    def __init__(self, alpha: float = 0.5):
        self.alpha = check_in_range(alpha, "alpha", 0.0, 1.0, inclusive=False)

    def predict(self, history: PhaseTimeHistory) -> float:
        times = self._require_samples(history)
        est = times[0]
        for t in times[1:]:
            est = self.alpha * t + (1.0 - self.alpha) * est
        return est


class LinearTrendPredictor(Predictor):
    """Least-squares linear extrapolation of the phase-time series — the
    "load is consistently predictable with simple linear models" approach
    of Dinda & O'Hallaron that the paper discusses.  Reacts fast to trends
    but, like the last-phase predictor, chases spikes."""

    def __init__(self, floor: float = 1e-9):
        if floor <= 0:
            raise ValueError(f"floor must be > 0, got {floor}")
        self.floor = floor

    def predict(self, history: PhaseTimeHistory) -> float:
        times = self._require_samples(history)
        n = len(times)
        if n == 1:
            return times[0]
        xs = list(range(n))
        mean_x = sum(xs) / n
        mean_y = sum(times) / n
        denom = sum((x - mean_x) ** 2 for x in xs)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, times)) / denom
        predicted = mean_y + slope * (n - mean_x)  # extrapolate one step
        return max(predicted, self.floor)


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean of positive values (module-level helper for tests)."""
    vals = list(values)
    if not vals:
        raise ValueError("harmonic mean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("harmonic mean requires positive values")
    return len(vals) / sum(1.0 / v for v in vals)
