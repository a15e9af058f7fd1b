"""REP002 — no unguarded writes to cross-rank shared state.

The load balancer (PR 2's conservation-through-migration test, the
decision-parity properties) is only sound if ranks exchange state
exclusively through the sanctioned channels: the communicator's
send/recv/allgather, the halo exchange, and plane migration.  A rank
that writes directly into an object another rank can see — a closure
variable of the SPMD launcher, a parameter array it does not own, the
``_World`` mailbox fabric — bypasses both the protocol's determinism and
the conservation bookkeeping.

Within ``repro/parallel/`` this rule flags:

- stores (``x[...] = v``, ``x.attr = v``, augmented forms) whose root is
  **not** ``self`` and **not** a local binding created inside the
  current function — i.e. writes through parameters, closure variables,
  or module globals;
- calls to known container mutators (``.append``, ``.put``,
  ``.update``, …) on such roots;
- any store or mutator call whose attribute chain passes through the
  shared mailbox fabric (``_world`` / ``world`` / ``channels`` /
  ``barrier``), even when rooted at ``self``.

Exempt:

- ``__init__`` / ``__post_init__`` bodies (construction happens-before
  the object is shared with other rank threads);
- code inside a ``with`` block whose context expression names a lock,
  mutex or barrier;
- the sanctioned transport/halo APIs listed in :data:`SANCTIONED`
  (their interior writes *are* the protocol: the mailbox ``Queue`` is
  internally locked, and the halo exchanger filling its caller's ghost
  planes is the API's contract).

Anything else needs a reasoned ``# repro: allow[REP002] -- ...``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.checkers._astutil import chain_attrs, root_name
from repro.analysis.core import Checker, FileContext, Finding, register_checker

#: Attribute segments that identify the shared mailbox fabric.
SHARED_FABRIC_ATTRS = {"_world", "world", "channels", "barrier"}

#: Container methods that mutate their receiver.
MUTATOR_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear",
    "update", "setdefault", "add", "discard", "put", "put_nowait",
}

#: ``rel_path -> function qualnames`` allowed to write shared state:
#: the cross-rank APIs themselves.
SANCTIONED: dict[str, frozenset[str]] = {
    "repro/parallel/threads.py": frozenset(
        {"ThreadCommunicator.send", "ThreadCommunicator.isend"}
    ),
    "repro/parallel/halo.py": frozenset(
        {
            "HaloExchanger.exchange_f",
            "HaloExchanger.exchange_scalar",
            "HaloExchanger._exchange_y",
        }
    ),
    "repro/parallel/migration.py": frozenset({"pad_with_ghosts"}),
    "repro/parallel/process.py": frozenset(
        {"_Link.pull_bytes", "_rank_entry"}
    ),
}

#: Functions always exempt: they run before the object escapes its
#: constructing thread.
CONSTRUCTOR_NAMES = {"__init__", "__post_init__"}

_LOCKLIKE_RE = re.compile(r"lock|mutex|barrier|semaphore", re.IGNORECASE)


def _is_parallel_module(rel_path: str) -> bool:
    return rel_path.startswith("repro/parallel/")


def _locals_of(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound inside *fn* itself (params + plain-name stores +
    loop/with/except/comprehension targets), excluding nested functions."""
    bound: set[str] = set()
    args = fn.args
    for a in (
        *args.posonlyargs, *args.args, *args.kwonlyargs,
        *( [args.vararg] if args.vararg else [] ),
        *( [args.kwarg] if args.kwarg else [] ),
    ):
        bound.add(a.arg)

    declared_nonlocal: set[str] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                bound.add(child.name)
                continue  # separate scope
            if isinstance(child, ast.Name) and isinstance(
                child.ctx, (ast.Store, ast.Del)
            ):
                bound.add(child.id)
            if isinstance(child, ast.ExceptHandler) and child.name:
                bound.add(child.name)
            if isinstance(child, (ast.Global, ast.Nonlocal)):
                declared_nonlocal.update(child.names)
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
            visit(child)

    visit(fn)
    return bound - declared_nonlocal


def _params_of(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = fn.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


class _FunctionScanner(ast.NodeVisitor):
    """Walks one function body, tracking lock-``with`` nesting; nested
    functions are scanned by their own scanner (with their own locals)."""

    def __init__(
        self,
        checker: "SharedWriteChecker",
        ctx: FileContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
    ):
        self.checker = checker
        self.ctx = ctx
        self.fn = fn
        self.qualname = qualname
        self.locals = _locals_of(fn)
        self.params = _params_of(fn)
        self.lock_depth = 0
        self.findings: list[Finding] = []

    # ------------------------------------------------------------- scopes
    def scan(self) -> list[Finding]:
        for stmt in self.fn.body:
            self.visit(stmt)
        return self.findings

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._nested(node)

    def _nested(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        sub = _FunctionScanner(
            self.checker, self.ctx, node, f"{self.qualname}.{node.name}"
        )
        sub.lock_depth = self.lock_depth
        self.findings.extend(sub.scan())

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return  # methods of a nested class get their own top-level pass

    # -------------------------------------------------------------- locks
    def visit_With(self, node: ast.With) -> None:
        self._with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._with(node)

    def _with(self, node: ast.With | ast.AsyncWith) -> None:
        locked = any(
            _LOCKLIKE_RE.search(ast.dump(item.context_expr))
            for item in node.items
        )
        if locked:
            self.lock_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if locked:
            self.lock_depth -= 1

    # ------------------------------------------------------------- stores
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_store(node.target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        attrs = chain_attrs(node.func)
        if attrs and attrs[-1] in MUTATOR_METHODS:
            receiver = node.func.value if isinstance(
                node.func, ast.Attribute
            ) else node.func
            self._check_shared(node, receiver, f".{attrs[-1]}() call")
        self.generic_visit(node)

    def _check_store(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store(elt)
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return  # plain-name rebinding is scope-local
        self._check_shared(target, target, "write")

    def _check_shared(
        self, node: ast.AST, chain: ast.AST, what: str
    ) -> None:
        if self.lock_depth > 0:
            return
        root = root_name(chain)
        if root is None:
            return
        attrs = chain_attrs(chain)
        through_fabric = bool(SHARED_FABRIC_ATTRS.intersection(attrs))
        if root == "self" and not through_fabric:
            return
        if root != "self" and root in self.locals and root not in self.params:
            if not through_fabric:
                return
        kind = (
            "the shared mailbox fabric"
            if through_fabric
            else "a parameter"
            if root in self.params
            else "a closure/global binding"
        )
        self.findings.append(
            self.checker.finding(
                self.ctx,
                node,
                f"{what} through {kind} ({root!r}) in '{self.qualname}': "
                "cross-rank state must go through the halo/migration/"
                "communicator APIs or a lock",
            )
        )


@register_checker
class SharedWriteChecker(Checker):
    rule = "REP002"
    title = "no unguarded cross-rank shared-state writes in repro.parallel"

    def applies_to(self, ctx: FileContext) -> bool:
        return _is_parallel_module(ctx.rel_path)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        sanctioned = SANCTIONED.get(ctx.rel_path, frozenset())
        for fn, qualname in _top_level_functions(ctx.tree):
            if fn.name in CONSTRUCTOR_NAMES or qualname in sanctioned:
                continue
            yield from _FunctionScanner(self, ctx, fn, qualname).scan()


def _top_level_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]]:
    """Module functions and class methods with their qualnames (nested
    functions are handled inside their parent's scanner)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, f"{node.name}.{item.name}"
