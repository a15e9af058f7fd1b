"""Sensitivity summaries for scenario sweeps.

Two complementary views, mirroring the structure of classical
simulation sensitivity toolkits:

- **One-at-a-time** (:func:`one_at_a_time`): march each parameter
  through evenly spaced quantiles of its prior while holding the others
  at their medians, and report the slip response curve per parameter —
  cheap, interpretable, and exactly what the fig-roughness/fig-pattern
  curves are.
- **Variance-based** (:func:`variance_sensitivity`): from an existing
  Monte Carlo sample set, the correlation ratio (binned eta-squared)
  of the response against each parameter — a model-free estimate of the
  fraction of output variance each input explains, interactions
  included in aggregate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.api import RunSpec, run_batch
from repro.lbm.diagnostics import effective_slip_fraction
from repro.lbm.solver import LBMConfig
from repro.sweep.spec import SweepParameter
from repro.util.validation import check_integer


def _coerce(scenario: Any, name: str, value: float) -> Any:
    """Round *value* to ``int`` when the scenario field is int-typed
    (periods, seeds), so the replacement constructs a valid scenario."""
    current = getattr(scenario, name)
    if isinstance(current, bool):
        raise TypeError(f"cannot sweep boolean field {name!r}")
    if isinstance(current, int):
        return int(round(value))
    return float(value)


@dataclass(frozen=True)
class OATResult:
    """One parameter's one-at-a-time slip response."""

    parameter: str
    values: np.ndarray
    slips: np.ndarray

    @property
    def span(self) -> float:
        """Peak-to-peak slip response — the crudest sensitivity rank."""
        return float(self.slips.max() - self.slips.min())


def one_at_a_time(
    base_config: LBMConfig,
    phases: int,
    parameters: Sequence[SweepParameter],
    *,
    levels: int = 5,
    check_every: int = 0,
    tol: float = 0.0,
) -> list[OATResult]:
    """Run the one-at-a-time design on :func:`repro.api.run_batch`.

    For each parameter: *levels* evenly spaced prior quantiles
    (mid-stratum, ``(i + 0.5) / levels``), every other parameter pinned
    at its median.  All points across all parameters are submitted as
    one batch, so compatible points share stacked ensemble passes.
    """
    if base_config.scenario is None:
        raise ValueError("one_at_a_time needs a base_config with a scenario")
    check_integer(levels, "levels", minimum=2)
    parameters = list(parameters)
    medians = {
        p.name: _coerce(base_config.scenario, p.name, p.dist.median())
        for p in parameters
    }
    specs: list[RunSpec] = []
    layout: list[tuple[int, float]] = []  # (parameter index, swept value)
    for pi, p in enumerate(parameters):
        quantiles = (np.arange(levels, dtype=np.float64) + 0.5) / levels
        for raw in p.dist.ppf(quantiles):
            sample = dict(medians)
            sample[p.name] = _coerce(base_config.scenario, p.name, float(raw))
            scenario = dataclasses.replace(base_config.scenario, **sample)
            specs.append(
                RunSpec(
                    config=dataclasses.replace(
                        base_config, scenario=scenario
                    ),
                    phases=phases,
                )
            )
            layout.append((pi, float(sample[p.name])))
    results = run_batch(specs, check_every=check_every, tol=tol)
    slips = [effective_slip_fraction(r) for r in results]
    out: list[OATResult] = []
    for pi, p in enumerate(parameters):
        values = [v for (i, v), _ in zip(layout, slips) if i == pi]
        curve = [s for (i, _), s in zip(layout, slips) if i == pi]
        out.append(
            OATResult(
                parameter=p.name,
                values=np.asarray(values, dtype=np.float64),
                slips=np.asarray(curve, dtype=np.float64),
            )
        )
    return out


def variance_sensitivity(
    samples: Sequence[dict[str, Any]],
    values: Sequence[float] | np.ndarray,
    *,
    bins: int = 4,
) -> dict[str, float]:
    """Correlation ratio (binned eta-squared) of *values* against each
    parameter in *samples*: the between-bin variance of the response,
    with bins cut at the parameter's sample quantiles, as a fraction of
    the total variance.  Returns ``{parameter: eta2}`` with values in
    ``[0, 1]``; a flat response gives 0 everywhere.
    """
    check_integer(bins, "bins", minimum=2)
    if not samples:
        raise ValueError("need at least one sample")
    y = np.asarray(values, dtype=np.float64)
    if y.shape != (len(samples),):
        raise ValueError(
            f"values must have one entry per sample "
            f"({len(samples)}), got shape {y.shape}"
        )
    total_var = float(y.var())
    grand_mean = float(y.mean())
    out: dict[str, float] = {}
    for name in samples[0]:
        x = np.asarray([s[name] for s in samples], dtype=np.float64)
        edges = np.quantile(x, np.linspace(0.0, 1.0, bins + 1))
        idx = np.clip(
            np.searchsorted(edges, x, side="right") - 1, 0, bins - 1
        )
        between = 0.0
        for b in range(bins):
            sel = idx == b
            if sel.any():
                between += float(sel.mean()) * (
                    float(y[sel].mean()) - grand_mean
                ) ** 2
        out[name] = between / total_var if total_var > 0 else 0.0
    return out
