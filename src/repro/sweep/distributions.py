"""Parameter distributions for Monte Carlo sweeps.

Each distribution maps uniform variates in ``[0, 1)`` to parameter
values through its quantile function :meth:`Distribution.ppf` — the
piece both plain Monte Carlo and Latin hypercube sampling share: MC
feeds it i.i.d. uniforms, LHS feeds it one stratified uniform per
sample.  ``ppf`` is vectorized (an array of variates in, an array of
values out) and deterministic, so a sweep is a pure function of its
seed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import numpy as np


class Distribution(abc.ABC):
    """One scalar parameter distribution (frozen dataclass subclasses)."""

    @abc.abstractmethod
    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Quantile function: uniform variates in ``[0, 1)`` to values."""

    @abc.abstractmethod
    def doc(self) -> dict[str, Any]:
        """Canonical JSON-able description (for sweep provenance)."""

    def median(self) -> float:
        """The 50% quantile — the hold-at value for one-at-a-time
        sensitivity designs."""
        return float(self.ppf(np.asarray([0.5]))[0])


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (self.high > self.low):
            raise ValueError(
                f"need high > low, got [{self.low}, {self.high}]"
            )

    def ppf(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        return self.low + (self.high - self.low) * u

    def doc(self) -> dict[str, Any]:
        return {
            "kind": "uniform",
            "low": float(self.low),
            "high": float(self.high),
        }


@dataclass(frozen=True)
class Discrete(Distribution):
    """Equiprobable choice from a fixed value tuple — how integer knobs
    (pattern period, roughness seed) and deliberate duplicate-heavy
    workloads (few values, many samples) enter a sweep."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("Discrete needs at least one value")
        object.__setattr__(self, "values", values)

    def ppf(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        idx = np.minimum(
            (u * len(self.values)).astype(np.intp), len(self.values) - 1
        )
        return np.asarray(self.values, dtype=np.float64)[idx]

    def doc(self) -> dict[str, Any]:
        return {"kind": "discrete", "values": list(self.values)}
