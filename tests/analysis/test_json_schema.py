"""The ``--json`` report shape is a stable contract.

``golden_report.json`` pins SCHEMA_VERSION 1 byte-for-byte (modulo the
absolute scan root).  If this test fails because the schema *should*
change, bump ``repro.analysis.reporters.SCHEMA_VERSION`` and regenerate
the golden in the same commit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis import SCHEMA_VERSION, render_json, run_analysis

from .conftest import SRC_ROOT

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures" / "demo"
GOLDEN = HERE / "golden_report.json"


def _normalized_report() -> dict:
    doc = json.loads(render_json(run_analysis(FIXTURES)))
    doc["root"] = "<fixtures>"
    return doc


def test_json_report_matches_golden():
    assert _normalized_report() == json.loads(GOLDEN.read_text())


def test_golden_pins_current_schema_version():
    golden = json.loads(GOLDEN.read_text())
    assert golden["schema_version"] == SCHEMA_VERSION


# ------------------------------------------------------------------- CLI
def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-B", "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"},
    )


def test_cli_exits_nonzero_on_unsuppressed_findings():
    proc = _cli(str(FIXTURES))
    assert proc.returncode == 1
    assert "REP004" in proc.stdout and "REP003" in proc.stdout


def test_cli_json_output_is_the_same_document():
    proc = _cli(str(FIXTURES), "--json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    doc["root"] = "<fixtures>"
    assert doc == json.loads(GOLDEN.read_text())


def test_cli_exits_zero_on_clean_tree():
    proc = _cli(str(FIXTURES / "repro" / "clean.py"))
    assert proc.returncode == 0
    assert "clean" in proc.stdout


def test_cli_list_rules():
    proc = _cli("--list-rules")
    assert proc.returncode == 0
    for rule in ("REP000", "REP001", "REP002", "REP003", "REP004"):
        assert rule in proc.stdout


def test_cli_rejects_unknown_rule_selection():
    proc = _cli(str(FIXTURES), "--rules", "REP999")
    assert proc.returncode != 0
