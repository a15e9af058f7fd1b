"""tools/dead_code.py: every def in src/repro has a non-test caller or an
allowlist entry with a reason."""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from .conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "dead_code", REPO_ROOT / "tools" / "dead_code.py"
)
assert _spec is not None and _spec.loader is not None
dead_code = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dead_code)


def copy_tree(dst: Path) -> Path:
    """The Python files the census reads, copied under *dst*."""
    for top in dead_code.CALLERS:
        for path in (REPO_ROOT / top).rglob("*.py"):
            target = dst / path.relative_to(REPO_ROOT)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, target)
    return dst


def append(path: Path, code: str) -> None:
    with path.open("a", encoding="utf-8") as fh:
        fh.write("\n\n" + textwrap.dedent(code))


def test_committed_tree_passes_check(capsys):
    assert dead_code.main(["check"]) == 0
    assert capsys.readouterr().out.startswith("OK")


def test_planted_uncalled_def_fails_and_is_named(tmp_path):
    tree = copy_tree(tmp_path)
    append(
        tree / "src" / "repro" / "util" / "timers.py",
        """\
        def planted_helper(seconds):
            return planted_helper(seconds - 1) if seconds else 0
        """,
    )
    dead, stale = dead_code.census(tree)
    assert stale == []
    assert [line.split(": ", 1)[1] for line in dead] == [
        "util.timers.planted_helper has no caller"
    ]
    proc = subprocess.run(
        [sys.executable, str(tree / "tools" / "dead_code.py"), "check"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "util.timers.planted_helper" in proc.stdout


def test_stale_allowlist_entry_fails(monkeypatch, capsys):
    allowlist = dict(dead_code.ALLOWLIST, **{"gone": "core.nowhere.vanished"})
    monkeypatch.setattr(dead_code, "ALLOWLIST", allowlist)
    assert dead_code.census() == ([], ["allowlisted core.nowhere.vanished is used again or gone"])
    assert dead_code.main(["check"]) == 1
    assert "core.nowhere.vanished" in capsys.readouterr().out


def test_allowlisted_def_with_a_caller_again_fails(tmp_path):
    tree = copy_tree(tmp_path)
    append(
        tree / "examples" / "quickstart.py",
        "from repro.util.rng import restore_generator  # noqa: F401\n",
    )
    assert dead_code.census(tree) == (
        [], ["allowlisted util.rng.restore_generator is used again or gone"]
    )


def test_register_decorated_class_and_visit_method_are_not_reported(tmp_path):
    module = tmp_path / "src" / "repro" / "plugin.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        textwrap.dedent(
            """\
            import ast

            from repro.registry import register_checker


            @register_checker
            class Registered:
                pass


            class Walker(ast.NodeVisitor):
                def visit_Call(self, node):
                    self.generic_visit(node)


            def lonely():
                pass


            Walker().visit(ast.parse("x"))
            """
        ),
        encoding="utf-8",
    )
    dead, _ = dead_code.census(tmp_path)
    assert dead == ["src/repro/plugin.py:16: plugin.lonely has no caller"]


@pytest.mark.parametrize("argv", [[], ["update"], ["check", "--fix"]])
def test_check_is_the_only_command(argv):
    with pytest.raises(SystemExit, match="usage"):
        dead_code.main(argv)
