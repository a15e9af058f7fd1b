"""``python -m bench compare A.json B.json``: is B worse than A?

For every workload x end-to-end metric: both medians, the ratio B/A
*with its base* (A's median), the bound, and a verdict --

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  a quartile spread (of either side) is wider than the
                bound, so the difference cannot be told from noise --
                unless B's whole inter-quartile range reads better than
                A's, which is ``ok``.

Also flags any ``f_sha256`` or slip-fraction difference (a physics drift
between two commits) and any rise of ``failed``.  Exit code 1 on a
regression, a physics difference or new failures; ``unresolved`` alone
does not fail.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from bench.metrics import END_TO_END


def spread(summary: dict[str, float]) -> float:
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def verdict(name: str, a: dict[str, float], b: dict[str, float]) -> str:
    _, better, bound, _ = END_TO_END[name]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    if max(spread(a), spread(b)) > bound:
        b_best, a_worst = (b["q3"], a["q1"]) if better == "lower" else (b["q1"], a["q3"])
        if sign * (b_best - a_worst) < 0:
            return "ok"
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[str], bool]:
    """Report lines and whether B fails against A."""
    lines = [
        f"{'workload':<16}{'metric':<15}{'A median':>12}{'B median':>12}"
        f"{'B/A':>8}  {'base (A)':>12}{'bound':>7}  verdict"
    ]
    bad = False
    for workload, doc_a in a["workloads"].items():
        doc_b = b["workloads"].get(workload)
        if doc_b is None:
            lines.append(f"{workload:<16}missing from B")
            bad = True
            continue
        for name in END_TO_END:
            sum_a = doc_a.get("summaries", {}).get(name)
            sum_b = doc_b.get("summaries", {}).get(name)
            if sum_a is None or sum_b is None:
                lines.append(f"{workload:<16}{name:<15}no value on one side: regressed")
                bad = True
                continue
            result = verdict(name, sum_a, sum_b)
            bad |= result == "regressed"
            lines.append(
                f"{workload:<16}{name:<15}{sum_a['median']:>12.5g}{sum_b['median']:>12.5g}"
                f"{sum_b['median'] / sum_a['median']:>8.3f}  {sum_a['median']:>12.5g}"
                f"{END_TO_END[name][2]:>7.0%}  {result}"
            )
        if doc_b["failed"] > doc_a["failed"]:
            lines.append(f"{workload:<16}failed rose {doc_a['failed']} -> {doc_b['failed']}")
            bad = True
        same_inputs = a["envelope"]["seed"] == b["envelope"]["seed"] or doc_a.get("deterministic")
        for key in ("f_sha256", "slip_fraction"):
            pa, pb = doc_a.get("physics", {}).get(key), doc_b.get("physics", {}).get(key)
            if same_inputs and pa != pb:
                lines.append(f"{workload:<16}PHYSICS DIFFERS {key}: {pa} -> {pb}")
                bad = True
    return lines, bad


def compare_files(path_a: Path, path_b: Path) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        lines, bad = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    print("REGRESSED" if bad else "no regression")
    return 1 if bad else 0
