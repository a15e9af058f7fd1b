"""tools/lint_ratchet.py: error-count and line-count ceilings only move
down."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from .conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "lint_ratchet", REPO_ROOT / "tools" / "lint_ratchet.py"
)
assert _spec is not None and _spec.loader is not None
lint_ratchet = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint_ratchet)


# ------------------------------------------------------------- pure logic
def test_missing_tool_is_skipped():
    code, msg = lint_ratchet.evaluate("mypy", None, 7)
    assert code == 0 and msg.startswith("SKIP")


def test_unpinned_ceiling_passes_but_nags():
    code, msg = lint_ratchet.evaluate("ruff", 12, None)
    assert code == 0
    assert "UNPINNED" in msg and "12" in msg


def test_count_above_ceiling_fails():
    code, msg = lint_ratchet.evaluate("mypy", 9, 5)
    assert code == 1 and msg.startswith("FAIL")


def test_count_at_ceiling_passes():
    code, msg = lint_ratchet.evaluate("mypy", 5, 5)
    assert code == 0 and msg.startswith("OK")


def test_count_below_ceiling_suggests_update():
    code, msg = lint_ratchet.evaluate("ruff", 2, 5)
    assert code == 0 and "update" in msg


# ---------------------------------------------------------- end to end
@pytest.fixture
def ratchet_file(tmp_path) -> Path:
    path = tmp_path / "lint_ratchet.json"
    lint_ratchet.save_ceilings({"mypy": None, "ruff": None}, path)
    return path


def _with_counts(monkeypatch, counts: dict[str, int | None]) -> None:
    monkeypatch.setattr(lint_ratchet, "measure", lambda tool: counts[tool])


def test_update_pins_unpinned_ceilings(monkeypatch, ratchet_file, capsys):
    _with_counts(monkeypatch, {"mypy": 3, "ruff": 1})
    assert lint_ratchet.main(["update", "--ratchet-file", str(ratchet_file)]) == 0
    assert lint_ratchet.load_ceilings(ratchet_file) == {"mypy": 3, "ruff": 1}


def test_check_fails_when_counts_rise(monkeypatch, ratchet_file):
    _with_counts(monkeypatch, {"mypy": 3, "ruff": 1})
    lint_ratchet.main(["update", "--ratchet-file", str(ratchet_file)])
    _with_counts(monkeypatch, {"mypy": 4, "ruff": 1})
    assert lint_ratchet.main(["check", "--ratchet-file", str(ratchet_file)]) == 1


def test_update_refuses_to_raise_a_ceiling(monkeypatch, ratchet_file, capsys):
    _with_counts(monkeypatch, {"mypy": 3, "ruff": 1})
    lint_ratchet.main(["update", "--ratchet-file", str(ratchet_file)])
    _with_counts(monkeypatch, {"mypy": 10, "ruff": 1})
    assert lint_ratchet.main(["update", "--ratchet-file", str(ratchet_file)]) == 0
    assert lint_ratchet.load_ceilings(ratchet_file)["mypy"] == 3
    assert "refusing" in capsys.readouterr().out


def test_update_lowers_ceilings(monkeypatch, ratchet_file):
    _with_counts(monkeypatch, {"mypy": 3, "ruff": 1})
    lint_ratchet.main(["update", "--ratchet-file", str(ratchet_file)])
    _with_counts(monkeypatch, {"mypy": 0, "ruff": 0})
    lint_ratchet.main(["update", "--ratchet-file", str(ratchet_file)])
    assert lint_ratchet.load_ceilings(ratchet_file) == {"mypy": 0, "ruff": 0}


def test_check_skips_missing_tools_end_to_end(monkeypatch, ratchet_file):
    _with_counts(monkeypatch, {"mypy": None, "ruff": None})
    assert lint_ratchet.main(["check", "--ratchet-file", str(ratchet_file)]) == 0


def test_committed_ratchet_file_is_well_formed():
    doc = json.loads((REPO_ROOT / "lint_ratchet.json").read_text())
    assert set(doc["ceilings"]) == {"mypy", "ruff"}
    for value in doc["ceilings"].values():
        assert value is None or (isinstance(value, int) and value >= 0)


# ------------------------------------------------------- line ceilings
@pytest.fixture
def loc_ratchet(monkeypatch, tmp_path) -> Path:
    """A scratch repo with a 3-line and a 2-line module under ``pkg``
    and a ratchet file pinning ``pkg`` at 5 lines."""
    monkeypatch.setattr(lint_ratchet, "REPO", tmp_path)
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\ny = 2\nz = 3\n")
    (tmp_path / "pkg" / "sub" / "b.py").write_text("u = 1\nv = 2\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not\ncounted\n")
    _with_counts(monkeypatch, {"mypy": None, "ruff": None})
    path = tmp_path / "lint_ratchet.json"
    lint_ratchet.save_ceilings({"mypy": 1, "ruff": 1}, path, {"pkg": 5})
    return path


def test_loc_counts_python_lines_recursively(loc_ratchet):
    assert lint_ratchet.count_loc("pkg") == 5


def test_loc_at_ceiling_passes_and_growth_fails(loc_ratchet, capsys):
    assert lint_ratchet.main(["check", "--ratchet-file", str(loc_ratchet)]) == 0
    assert "OK: pkg reports 5 lines" in capsys.readouterr().out
    (loc_ratchet.parent / "pkg" / "c.py").write_text("w = 1\n")
    assert lint_ratchet.main(["check", "--ratchet-file", str(loc_ratchet)]) == 1
    assert "FAIL: pkg reports 6 lines" in capsys.readouterr().out


def test_loc_update_only_lowers(loc_ratchet, capsys):
    grown = loc_ratchet.parent / "pkg" / "c.py"
    grown.write_text("w = 1\n")
    lint_ratchet.main(["update", "--ratchet-file", str(loc_ratchet)])
    assert lint_ratchet.load_loc(loc_ratchet) == {"pkg": 5}
    assert "refusing" in capsys.readouterr().out
    grown.unlink()
    (loc_ratchet.parent / "pkg" / "sub" / "b.py").unlink()
    lint_ratchet.main(["update", "--ratchet-file", str(loc_ratchet)])
    assert lint_ratchet.load_loc(loc_ratchet) == {"pkg": 3}
    # The tool ceilings ride along untouched.
    assert lint_ratchet.load_ceilings(loc_ratchet) == {"mypy": 1, "ruff": 1}


def test_ratchet_file_without_loc_section_has_no_line_ceilings(ratchet_file):
    assert lint_ratchet.load_loc(ratchet_file) == {}


def test_committed_loc_ceilings_hold():
    """The gate itself: counting lines needs no tool, so the committed
    ceilings are enforced by the test suite, not only by CI."""
    loc = lint_ratchet.load_loc(REPO_ROOT / "lint_ratchet.json")
    assert set(loc) == {
        "src/repro/parallel",
        "src/repro/core",
        "src/repro/lbm",
        "src/repro/analysis",
        "src/repro/serve",
        "src/repro/sweep",
        "src/repro/obs",
        "src/repro/ckpt",
        "src/repro/experiments",
        "src/repro/cluster",
        "src/repro/util",
        "src/repro/scenarios",
    }
    for directory, ceiling in loc.items():
        assert lint_ratchet.count_loc(directory) <= ceiling, directory
