#!/usr/bin/env python3
"""Floors on one result line of the end-to-end benchmark.

    python -m bench measure --workload sweep_small --seed 1 --seconds 3 --trace 1 \\
        | python tools/bench_floors.py --workload sweep_small --trace 1

Reads the last non-empty line of stdin — the ``{"correct", "attempted",
"failed", "metrics"}`` object ``python -m bench measure`` prints — and
holds it to the literal table :data:`FLOORS`.  Every run must be
correct with no failed operation; a traced run of a listed workload
must also hold that workload's floors.  A floor compares a metric with
a number, or with another metric of the same line, so none of them is
a wall-clock threshold a slow runner could trip.

Exits 0 when everything holds and 1 otherwise, naming each broken
floor.  An empty or unparsable line, or a line without the metric a
floor names, is a failure too: a run that crashed cannot pass.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys

#: Submissions per ``sweep_small`` set: three sweeps of 6 samples x 3
#: repeats.  Fewer executions than this means the serve tier dedups.
SWEEP_SUBMISSIONS = 54

#: ``(workload, trace)`` -> floors ``(metric, op, bound)``; *bound* is a
#: number or the name of another metric of the same line.
FLOORS: dict[tuple[str, int], tuple[tuple[str, str, float | str], ...]] = {
    ("sweep_small", 1): (
        ("sweep.executions", "<", SWEEP_SUBMISSIONS),
        ("sweep.dedup_ratio", ">", 0.0),
        # A stacked ensemble member costs less than a single solver step.
        ("lbm.ensemble_us_per_pt", "<", "lbm.step_us_per_pt"),
    ),
    ("serve_open", 1): (
        # The stream holds exactly 40 % duplicates.  No ensemble floor
        # here: on the 32x48 lattice a stacked member read 0.64-1.06 of
        # a single step over ten traced runs on a 2-vCPU box, so it
        # would fail on noise; the 12x18 stack above read 0.37-0.53.
        ("serve.hit_rate", ">=", 0.35),
        ("serve.dedup_ratio", ">=", 0.35),
    ),
}

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def check(line: str, workload: str, trace: int) -> tuple[list[str], list[str]]:
    """``(held, broken)`` descriptions of the floors for one result line."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return [], [f"not a benchmark result line: {line[:80]!r}"]
    held: list[str] = []
    broken: list[str] = []
    verdict = f"correct={doc.get('correct')} failed={doc.get('failed')}"
    if doc.get("correct") is True and doc.get("failed") == 0:
        held.append(verdict)
    else:
        broken.append(verdict)
    metrics = {
        name: entry["value"] for name, entry in doc.get("metrics", {}).items()
    }
    for name, op, bound in FLOORS.get((workload, trace), ()):
        missing = [m for m in (name, bound) if isinstance(m, str) and m not in metrics]
        if missing:
            broken.append(f"{', '.join(missing)} missing from the result line")
            continue
        right = metrics[bound] if isinstance(bound, str) else bound
        label = f"{bound} ({right:.4g})" if isinstance(bound, str) else bound
        text = f"{name} {metrics[name]:.4g} {op} {label}"
        (held if OPS[op](metrics[name], right) else broken).append(text)
    return held, broken


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    held, broken = check(lines[-1] if lines else "", args.workload, args.trace)
    for text in held:
        print(f"OK: {args.workload}: {text}")
    for text in broken:
        print(f"FAIL: {args.workload}: {text}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
