"""Report rendering for the analysis suite.

The JSON shape is a stable contract (``SCHEMA_VERSION``) pinned by the
golden test in ``tests/analysis/test_json_schema.py`` so future tooling
(CI annotators, trend dashboards) can parse reports without chasing the
checker implementations.
"""

from __future__ import annotations

import json

from repro.analysis.core import Report, registered_rules

#: Bump only with a corresponding golden-test update.
SCHEMA_VERSION = 1


def render_text(report: Report, *, verbose: bool = False) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [f.format() for f in report.unsuppressed]
    if verbose:
        lines.extend(f.format() for f in report.suppressed)
    counts = report.counts_by_rule()
    total = len(report.unsuppressed)
    summary = (
        f"{report.files_scanned} files scanned: "
        + (
            ", ".join(f"{r}={n}" for r, n in sorted(counts.items()))
            if counts
            else "clean"
        )
        + f" ({total} finding{'s' if total != 1 else ''}, "
        f"{len(report.suppressed)} suppressed)"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: Report) -> str:
    """Machine-readable report (schema pinned by the golden test)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": "repro.analysis",
        "root": report.root,
        "files_scanned": report.files_scanned,
        "rules": registered_rules(),
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
                "suppressed": f.suppressed,
                "suppress_reason": f.suppress_reason,
            }
            for f in report.findings
        ],
        "summary": {
            "total": len(report.findings),
            "unsuppressed": len(report.unsuppressed),
            "suppressed": len(report.suppressed),
            "by_rule": report.counts_by_rule(),
        },
    }
    return json.dumps(doc, indent=2, sort_keys=False)

