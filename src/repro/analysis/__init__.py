"""``repro.analysis`` — AST-based invariant checkers for this repo.

Static shadows of the suite's hardest runtime guarantees: the fused
backend's zero-allocation step (REP001), halo/migration-only cross-rank
state exchange (REP002), seed-determinism (REP003), dtype/observer
default discipline (REP004), atomic file writes (REP005) and
environment access through ``repro.config`` (REP006).  Run
``python -m repro.analysis src`` or ``make lint``; see
``docs/STATIC_ANALYSIS.md`` for the rule catalogue and the
``# repro: allow[...] -- reason`` suppression syntax.
"""

from repro.analysis.core import (
    Checker,
    FileContext,
    Finding,
    Report,
    Suppression,
    register_checker,
    registered_rules,
    run_analysis,
)
from repro.analysis.reporters import SCHEMA_VERSION, render_json, render_text

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "Report",
    "SCHEMA_VERSION",
    "Suppression",
    "register_checker",
    "registered_rules",
    "render_json",
    "render_text",
    "run_analysis",
]
