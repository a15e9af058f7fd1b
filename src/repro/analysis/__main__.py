"""CLI driver: ``python -m repro.analysis <paths> [--json] [--rules ...]``.

Exit status 1 when any unsuppressed finding remains — this is what
``make lint`` and the CI ``static-analysis`` job gate on.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.core import registered_rules, run_analysis
from repro.analysis.reporters import render_json, render_text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Invariant checkers for this repo: per-file AST rules "
            "(REP001 hot-path allocation, REP002 cross-rank shared "
            "writes, REP003 determinism, REP004 dtype/observer "
            "discipline, REP005 atomic writes, REP006 environment "
            "access).  See docs/STATIC_ANALYSIS.md."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", type=Path, help="files or directories to scan"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule ids and exit"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print suppressed findings (text mode)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, title in registered_rules().items():
            print(f"{rule_id}  {title}")
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m repro.analysis src)")

    rules = (
        [r.strip() for r in args.rules.split(",") if r.strip()]
        if args.rules
        else None
    )
    if rules:
        unknown = sorted(set(rules) - set(registered_rules()))
        if unknown:
            parser.error(f"unknown rule(s): {unknown}")

    worst = 0
    for path in args.paths:
        report = run_analysis(path, rules)
        if args.json:
            print(render_json(report))
        else:
            print(render_text(report, verbose=args.verbose))
        if report.unsuppressed:
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
