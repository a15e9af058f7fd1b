#!/usr/bin/env python3
"""Lint ratchet: mypy/ruff error counts and per-package line counts may
only go down.

    python tools/lint_ratchet.py check            # CI gate
    python tools/lint_ratchet.py update           # lower the ceilings

The committed ceilings live in ``lint_ratchet.json``.  ``check`` fails
when a tool reports **more** errors than its ceiling; ``update`` lowers
a ceiling to the measured count but refuses to raise it, so lint debt
can ratchet down but never quietly grow (the same contract as
``tools/coverage_ratchet.py`` for coverage).

The file's ``"loc"`` section holds the same kind of ceiling for the
lines of ``*.py`` under a directory — a package that was deliberately
shrunk cannot quietly regrow.  Counting lines needs no tool, so unlike
mypy/ruff this entry is enforced everywhere.

A ceiling of ``null`` means "not yet pinned": ``check`` passes but
prints the measured count and nags to pin it.  A tool that is not
installed in the current environment is skipped with a note — the dev
container ships without mypy/ruff; CI installs both, so the gate is
enforced where it matters.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RATCHET_PATH = REPO / "lint_ratchet.json"

#: tool name -> command that measures it (run from the repo root).
COMMANDS: dict[str, list[str]] = {
    "mypy": [sys.executable, "-m", "mypy", "src"],
    "ruff": [sys.executable, "-m", "ruff", "check", "src"],
}


def tool_available(tool: str) -> bool:
    return importlib.util.find_spec(tool) is not None


def measure(tool: str) -> int | None:
    """Error count reported by *tool*, or None when it is not installed."""
    if not tool_available(tool):
        return None
    proc = subprocess.run(
        COMMANDS[tool], capture_output=True, text=True, cwd=REPO
    )
    if tool == "mypy":
        return sum(
            1 for line in proc.stdout.splitlines() if ": error:" in line
        )
    # ruff: one finding per line like "path:line:col: CODE message"; the
    # trailing "Found N errors." summary (if any) is not such a line.
    count = 0
    for line in proc.stdout.splitlines():
        parts = line.split(":", 3)
        if len(parts) == 4 and parts[1].isdigit() and parts[2].isdigit():
            count += 1
    return count


def count_loc(directory: str) -> int:
    """Lines of every ``*.py`` under the repo-relative *directory*."""
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (REPO / directory).rglob("*.py")
    )


def load_ceilings(path: Path = RATCHET_PATH) -> dict[str, int | None]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {tool: doc["ceilings"].get(tool) for tool in COMMANDS}


def load_loc(path: Path = RATCHET_PATH) -> dict[str, int | None]:
    """The ``directory -> line ceiling`` section (absent: no ceilings)."""
    return json.loads(path.read_text(encoding="utf-8")).get("loc", {})


def save_ceilings(
    ceilings: dict[str, int | None],
    path: Path = RATCHET_PATH,
    loc: dict[str, int | None] | None = None,
) -> None:
    doc: dict = {
        "ceilings": ceilings,
        "note": (
            "error-count and line-count ceilings; `python "
            "tools/lint_ratchet.py update` lowers them, raising one "
            "requires editing this file in review"
        ),
    }
    if loc:
        doc["loc"] = loc
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def evaluate(
    tool: str, count: int | None, ceiling: int | None, unit: str = "errors"
) -> tuple[int, str]:
    """Pure check logic: ``(exit_code, message)`` for one measured entry
    (a lint tool's *errors*, or a directory's *lines*)."""
    if count is None:
        return 0, f"SKIP: {tool} is not installed here (CI enforces it)"
    if ceiling is None:
        return 0, (
            f"UNPINNED: {tool} reports {count} {unit}; pin the ceiling "
            "with `python tools/lint_ratchet.py update`"
        )
    if count > ceiling:
        return 1, (
            f"FAIL: {tool} reports {count} {unit}, above the committed "
            f"ceiling of {ceiling} — fix the new {unit} (or, if the rise "
            "is deliberate, raise the ceiling in lint_ratchet.json with a "
            "review-visible diff)"
        )
    msg = f"OK: {tool} reports {count} {unit} (ceiling {ceiling})"
    if count < ceiling:
        msg += (
            " — consider `python tools/lint_ratchet.py update` to "
            f"lower the ceiling to {count}"
        )
    return 0, msg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command", choices=("check", "update"))
    parser.add_argument(
        "--ratchet-file", type=Path, default=RATCHET_PATH,
        help="override the committed ratchet file (used by the tests)",
    )
    args = parser.parse_args(argv)

    ceilings = load_ceilings(args.ratchet_file)
    loc = load_loc(args.ratchet_file)
    # (name, measured count, the section holding its ceiling, unit)
    entries: list[tuple[str, int | None, dict[str, int | None], str]]
    entries = [(tool, measure(tool), ceilings, "errors") for tool in COMMANDS]
    entries += [(path, count_loc(path), loc, "lines") for path in loc]

    if args.command == "check":
        status = 0
        for name, count, section, unit in entries:
            code, msg = evaluate(name, count, section[name], unit)
            print(msg)
            status = max(status, code)
        return status

    # update: ceilings only move down (or get pinned for the first time)
    changed = False
    for tool, count, section, _ in entries:
        ceiling = section[tool]
        if count is None:
            print(f"{tool}: not installed, ceiling unchanged")
            continue
        if ceiling is None or count < ceiling:
            print(f"{tool}: ceiling {ceiling} -> {count}")
            section[tool] = count
            changed = True
        elif count > ceiling:
            print(
                f"{tool}: measured {count} > ceiling {ceiling}; refusing "
                "to raise — fix the rise or edit lint_ratchet.json"
            )
        else:
            print(f"{tool}: ceiling stays at {ceiling}")
    if changed:
        save_ceilings(ceilings, args.ratchet_file, loc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
