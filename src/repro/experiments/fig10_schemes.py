"""Figure 10: execution time of 600 phases for different remapping
techniques as the number of fixed slow nodes varies from 0 to 5.

The paper's findings: filtered remapping is best throughout (up to 57.8%
faster than no-remapping and up to 39% faster than conservative
redistribution); global remapping is competitive with one slow node but
falls behind the local schemes past two because of its synchronization
cost and because slow nodes still receive proportional load.
"""

from __future__ import annotations

from repro.cluster.machine import paper_cluster
from repro.cluster.simulator import simulate
from repro.cluster.workload import fixed_slow_traces
from repro.core.policies import make_policy
from repro.experiments.fig8_speedup import SLOW_ORDER
from repro.experiments.report import Report
from repro.util.tables import format_table

ORDER = ("no-remap", "filtered", "conservative", "global")


def run(
    fast: bool = False,
    *,
    phases: int = 600,
    max_slow: int = 5,
    jitter: float = 0.06,
    seed: int = 7,
) -> Report:
    if fast:
        phases = max(60, phases // 10)

    rows = []
    series: dict[str, list[float]] = {name: [] for name in ORDER}
    for k in range(max_slow + 1):
        row: list[object] = [k]
        for name in ORDER:
            spec = paper_cluster(
                fixed_slow_traces(20, SLOW_ORDER[:k], jitter=jitter, seed=seed)
            )
            result = simulate(spec, make_policy(name), phases)
            row.append(result.total_time)
            series[name].append(result.total_time)
        rows.append(tuple(row))

    text_rows = format_table(
        ["#slow"] + [f"{n} (s)" for n in ORDER],
        rows,
        title=(
            f"Execution time of {phases} phases (paper: filtered best, "
            f"beating no-remapping by up to 57.8% and conservative by up "
            f"to 39%; global competitive at 1 slow node, worst growth after 2)"
        ),
        float_fmt="{:.1f}",
    )

    best_vs_noremap = max(
        (nr - f) / nr
        for nr, f in zip(series["no-remap"][1:], series["filtered"][1:])
    )
    best_vs_cons = max(
        (c - f) / c
        for c, f in zip(series["conservative"][1:], series["filtered"][1:])
    )
    summary = (
        f"\nfiltered vs no-remapping: up to {100 * best_vs_noremap:.1f}% faster "
        f"(paper: up to 57.8%)\n"
        f"filtered vs conservative: up to {100 * best_vs_cons:.1f}% faster "
        f"(paper: up to 39%)"
    )
    return Report(
        name="fig10",
        title="Execution time for different remapping techniques",
        text=text_rows + summary,
        data={
            "n_slow": list(range(max_slow + 1)),
            "series": series,
            "filtered_vs_noremap": best_vs_noremap,
            "filtered_vs_conservative": best_vs_cons,
        },
    )
