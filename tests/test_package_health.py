"""Package-level health checks: imports, public API, example scripts."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
#: Each example's arguments for a run of a few seconds at most, and a
#: line its output must hold.
EXAMPLE_RUNS = {
    "checkpoint_demo.py": (
        ["--store", "ckpt", "--phases", "24"], "bit-exact vs uninterrupted run: True"
    ),
    "full_pipeline.py": (["--phases", "100"], "bitwise equal to sequential: True"),
    "quickstart.py": ([], "slip attributable to the hydrophobic wall force"),
    "serve_demo.py": (["--jobs", "6"], "served results bit-identical to run()"),
    "slip_microchannel_3d.py": (["--fast"], "hydrophobic slip gain"),
    "traced_parallel_run.py": (
        ["--ranks", "2", "--phases", "20", "--trace", "run.jsonl"],
        "trace written to run.jsonl",
    ),
}


class TestImports:
    def test_every_module_imports(self):
        failures = []
        for mod in pkgutil.walk_packages(repro.__path__, "repro."):
            try:
                importlib.import_module(mod.name)
            except Exception as exc:  # noqa: BLE001 - collecting all
                failures.append((mod.name, repr(exc)))
        assert not failures

    def test_version_exported(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_lbm_all_resolves(self):
        import repro.lbm

        for name in repro.lbm.__all__:
            assert hasattr(repro.lbm, name), name

    def test_core_all_resolves(self):
        import repro.core

        for name in repro.core.__all__:
            assert hasattr(repro.core, name), name

    def test_cluster_all_resolves(self):
        import repro.cluster

        for name in repro.cluster.__all__:
            assert hasattr(repro.cluster, name), name


class TestExamples:
    def test_examples_exist(self):
        assert len(EXAMPLES) >= 6

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_runs_at_a_small_size(self, path, tmp_path):
        args, expected = EXAMPLE_RUNS[path.name]
        src = str(REPO_ROOT / "src")
        path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, str(path), *args],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path_var},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert expected in proc.stdout

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_parses_and_has_main(self, path):
        tree = ast.parse(path.read_text())
        func_names = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        assert "main" in func_names, f"{path.name} lacks a main()"
        # Every example must have a module docstring with usage.
        assert ast.get_docstring(tree), f"{path.name} lacks a docstring"

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_imports_only_public_packages(self, path):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                top = node.module.split(".")[0]
                assert top in ("repro", "numpy", "argparse"), (
                    f"{path.name} imports {node.module}"
                )


class TestDocs:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md",
         "docs/ALGORITHM.md", "docs/PHYSICS.md", "docs/SIMULATOR.md"],
    )
    def test_doc_exists_and_nonempty(self, name):
        path = REPO_ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 500
