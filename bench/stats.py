"""Median and quartiles as the benchmark reports them everywhere."""

from __future__ import annotations

import statistics


def summarize(values: list[float]) -> dict[str, float]:
    """Median, first and third quartile (``statistics.quantiles(n=4)``)
    and sample count of *values*."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
