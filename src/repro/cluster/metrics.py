"""Performance metrics as defined in the paper.

- **speedup** = sequential execution time / parallel execution time;
- **normalized efficiency** = speedup / (P - 0.7 m) for a cluster of P
  nodes of which m run a 70%-CPU background job (the paper's utilization
  measure for a non-dedicated cluster);
- **slowdown ratio** = (T - T_dedicated) / T_dedicated (Table 1).
"""

from __future__ import annotations

from repro.cluster.costmodel import PhaseCostModel
from repro.util.validation import check_integer, check_positive


def sequential_time(
    total_points: int, phases: int, cost_model: PhaseCostModel
) -> float:
    """Execution time of the sequential program on one dedicated node (no
    communication)."""
    check_integer(total_points, "total_points", minimum=1)
    check_integer(phases, "phases", minimum=0)
    return cost_model.compute_work(total_points) * phases


def speedup(sequential: float, parallel: float) -> float:
    """T_seq / T_par."""
    check_positive(sequential, "sequential")
    check_positive(parallel, "parallel")
    return sequential / parallel


def normalized_efficiency(
    speedup_value: float,
    n_nodes: int,
    n_slow: int,
    *,
    background_share: float = 0.7,
) -> float:
    """The paper's utilization metric: speedup / (P - share * m), the
    speedup achievable if every remaining CPU cycle were perfectly used."""
    check_positive(speedup_value, "speedup_value")
    check_integer(n_nodes, "n_nodes", minimum=1)
    check_integer(n_slow, "n_slow", minimum=0)
    if n_slow > n_nodes:
        raise ValueError("n_slow cannot exceed n_nodes")
    capacity = n_nodes - background_share * n_slow
    if capacity <= 0:
        raise ValueError("no capacity left under this background share")
    return speedup_value / capacity


def slowdown_ratio(execution_time: float, dedicated_time: float) -> float:
    """(T - T_dedicated) / T_dedicated, the Table 1 metric."""
    check_positive(execution_time, "execution_time")
    check_positive(dedicated_time, "dedicated_time")
    return (execution_time - dedicated_time) / dedicated_time


def overhead_percent(execution_time: float, dedicated_time: float) -> float:
    """Figure 3's right panel: percentage increase over the undisturbed
    run."""
    return 100.0 * slowdown_ratio(execution_time, dedicated_time)
