"""Sensitivity summary for scenario sweeps.

**Variance-based** (:func:`variance_sensitivity`): from an existing
Monte Carlo sample set, the correlation ratio (binned eta-squared) of
the response against each parameter — a model-free estimate of the
fraction of output variance each input explains, interactions included
in aggregate.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.util.validation import check_integer


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
