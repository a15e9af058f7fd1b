"""Load-index predictors.

A predictor maps a node's recent phase times to the *predicted time* of the
next phase — the load index exchanged between neighbours.  The paper's
choice is the **harmonic mean** of the last K phase times:

    T_pred = K / (1/t_1 + 1/t_2 + ... + 1/t_K)

The harmonic mean is dominated by the *small* samples, so a single load
spike (one huge t_i) barely moves it: "if there is a load spike during the
last phase, no migration will be made unless this machine is really slow
for the last phases".  The one alternative, last-phase prediction, is the
ablation benchmark's: it causes the paper's "migration oscillation".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.core.history import PhaseTimeHistory


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


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean of positive values (module-level helper for tests)."""
    vals = list(values)
    if not vals:
        raise ValueError("harmonic mean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("harmonic mean requires positive values")
    return len(vals) / sum(1.0 / v for v in vals)
