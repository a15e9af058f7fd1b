#!/usr/bin/env python3
"""Dead-code census, ``python tools/dead_code.py check``: each def in ``src/repro`` needs a
caller outside ``tests/``.  It scans the top-level functions and classes of
``src/repro`` and their methods.  A def is used when its name occurs in ``src/``,
``examples/``, ``benchmarks/``, ``bench/`` or ``tools/`` outside its own body, as an AST
``Name``, ``Attribute``, import alias or identifier string; ``__init__`` re-exports,
``__all__``, docstrings and comments do not count.  Dunder and ``visit_*`` methods and
``register_*``-decorated defs are exempt.  ``check`` fails on an unused def missing from
:data:`ALLOWLIST`, and on an allowlist entry that is used again or no longer exists.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

CALLERS = ("src", "examples", "benchmarks", "bench", "tools")

#: reason -> the ``module.qualname``s kept for it without a caller.
ALLOWLIST = {
    "physics oracle: tests hold the solver or the simulator to it": """
        lbm.analytic.poiseuille_max_velocity lbm.analytic.navier_slip_poiseuille
        lbm.analytic.slip_length_to_slip_fraction lbm.analytic.taylor_green_velocity
        lbm.analytic.taylor_green_decay_rate lbm.analytic.measure_viscosity_from_decay
        cluster.analysis.expected_speedup cluster.analysis.paper_sanity_check
        lbm.solver.MulticomponentLBM.initialize_equilibrium lbm.units.UnitSystem.to_lattice_length
        lbm.solver.MulticomponentLBM.kinetic_energy""",
    "load-index filter the paper argues against (docs/ALGORITHM.md §1)": """
        core.prediction.ArithmeticMeanPredictor core.prediction.ExponentialPredictor
        core.prediction.LinearTrendPredictor""",
    "fault-injection vocabulary of the recovery tests": """
        ckpt.faults.FaultPlan.also ckpt.faults.FaultPlan.kill_rank
        ckpt.faults.FaultPlan.stall_writer ckpt.faults.truncate_file""",
    "test entry point into a production protocol": """
        parallel.threads.run_spmd api.execute_parallel parallel.api.Communicator.sendrecv
        parallel.halo.HaloExchanger.exchange_f parallel.halo.HaloExchanger.exchange_scalar""",
    "inverse of a stored format, kept beside its writer": """
        util.rng.restore_generator scenarios.base.scenario_from_doc""",
}

def _defs(tree: ast.Module):
    """``(qualname, node)`` of the top-level defs and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{m.name}", m


def _exempt(node) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    dunder = node.name.startswith("__") and node.name.endswith("__")
    return dunder or node.name.startswith("visit_") or any(
        getattr(d, "id", getattr(d, "attr", "")).startswith("register_") for d in decorators
    )


def _uses(tree: ast.Module, is_init: bool):
    """``(name, line)`` of every use in one parsed file."""
    skip: set[int] = set()
    for node in ast.walk(tree):
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        reexport = is_init and isinstance(node, (ast.Import, ast.ImportFrom))
        if reexport or any(getattr(t, "id", None) == "__all__" for t in targets):
            skip.update(id(n) for n in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            names = (node.name.rsplit(".", 1)[-1], node.asname)
            yield from ((name, node.lineno) for name in names if name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def census(root: Path = Path(__file__).resolve().parent.parent) -> tuple[list[str], list[str]]:
    """``(unused defs missing from the allowlist, stale allowlist entries)``."""
    paths = [path for top in CALLERS for path in sorted((root / top).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _uses(tree, path.name == "__init__.py"):
            uses.setdefault(name, []).append((path, line))
    package = root / "src" / "repro"
    unused: dict[str, str] = {}
    for path in (p for p in paths if package in p.parents):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for qualname, node in _defs(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            called = (p != path or line not in own for p, line in uses.get(node.name, ()))
            if not _exempt(node) and not any(called):
                unused[f"{module}.{qualname}"] = f"{path.relative_to(root)}:{node.lineno}"
    allowed = {key for keys in ALLOWLIST.values() for key in keys.split()}
    dead = [f"{at}: {key} has no caller" for key, at in unused.items() if key not in allowed]
    stale = [f"allowlisted {key} is used again or gone" for key in allowed - set(unused)]
    return dead, sorted(stale)


def main(argv: list[str]) -> int:
    if argv != ["check"]:
        sys.exit("usage: python tools/dead_code.py check")
    dead, stale = census()
    if dead or stale:
        print(*dead, *stale, "FAIL: add a non-test caller, delete it or allowlist it", sep="\n")
        return 1
    print("OK: every def in src/repro has a non-test caller or an allowlist reason")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
