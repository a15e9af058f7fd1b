"""Core of the ``repro.analysis`` static-invariant checker suite.

The suite exists because the repo's two hardest guarantees are invisible
to ordinary linters:

- the fused kernel backend performs **zero full-grid allocation** per
  step (pinned at runtime by the tracemalloc test in
  ``tests/lbm/test_backends.py``);
- parallel ranks exchange state **only** through the halo / migration /
  communicator APIs, and every run is **deterministic from its seed**
  (pinned by the golden-run trace test in
  ``tests/obs/test_golden_run.py``).

Runtime tests catch a violation only on the code paths they execute;
the AST checkers here flag the violating *source line* on every path.

Architecture
------------
A :class:`Checker` declares a rule id (``REP001`` …), decides which files
it :meth:`~Checker.applies_to`, and yields :class:`Finding` objects from
one parsed file (:class:`FileContext`).  Checkers self-register via
:func:`register_checker`;
:func:`run_analysis` drives every registered checker over a file tree,
applies suppressions centrally, reports *unused* suppressions as
``REP000``, and returns a :class:`Report`.

Suppressions
------------
A finding is silenced by a comment on the same line (or on a standalone
comment line directly above)::

    buf = np.empty_like(f)  # repro: allow[REP001] -- cold fallback after migration

The reason string after ``--`` is **mandatory**: a suppression without
one (or naming an unknown rule) is itself reported as ``REP000`` and
cannot be suppressed.  A suppression whose rule ran but produced **no**
finding on the covered line is also reported as ``REP000`` ("unused
suppression"), so allows cannot rot in place once the code they excuse
is gone.  This keeps every exception in the codebase self-documenting.
"""

from __future__ import annotations

import abc
import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Iterator

#: Rule id reserved for problems with the suppression comments themselves.
SUPPRESSION_RULE = "REP000"

_RULE_ID_RE = re.compile(r"^REP\d{3}$")
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[^\]]*)\]"
    r"(?:\s*--\s*(?P<reason>.*\S))?\s*$"
)
@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str  # posix path relative to the scan root
    line: int  # 1-based
    col: int  # 0-based, as reported by ast
    message: str
    suppressed: bool = False
    suppress_reason: str | None = None

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{tag}"


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: allow[...] -- reason`` comment."""

    line: int
    rules: tuple[str, ...]
    reason: str


@dataclass
class FileContext:
    """Everything a checker needs about one source file."""

    path: Path  # absolute
    rel_path: str  # posix, relative to the scan root
    source: str
    tree: ast.Module


class Checker(abc.ABC):
    """One static rule.  Subclasses set ``rule`` / ``title`` and register
    themselves with :func:`register_checker`."""

    #: Rule id, e.g. ``"REP001"``.
    rule: ClassVar[str] = ""
    #: One-line human description shown by ``--list-rules``.
    title: ClassVar[str] = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this checker runs on *ctx* at all (path-scoped rules
        override this)."""
        return True

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file (suppressions are applied by the
        driver, not here)."""

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.rule,
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_CHECKERS: dict[str, type[Checker]] = {}


def register_checker(cls: type[Checker]) -> type[Checker]:
    """Class decorator: add *cls* to the rule registry under its id."""
    if not _RULE_ID_RE.match(cls.rule or ""):
        raise ValueError(f"checker {cls.__name__} needs a REPnnn rule id")
    if cls.rule == SUPPRESSION_RULE:
        raise ValueError(f"{SUPPRESSION_RULE} is reserved for bad suppressions")
    if cls.rule in _CHECKERS and _CHECKERS[cls.rule] is not cls:
        raise ValueError(f"rule {cls.rule} is already registered")
    _CHECKERS[cls.rule] = cls
    return cls


def registered_rules() -> dict[str, str]:
    """``rule id -> title`` for every registered checker, plus REP000."""
    _ensure_checkers_loaded()
    rules = {SUPPRESSION_RULE: "malformed or reason-less suppression comment"}
    for rule_id in sorted(_CHECKERS):
        rules[rule_id] = _CHECKERS[rule_id].title
    return rules


def _ensure_checkers_loaded() -> None:
    # Import for the registration side effect; late to avoid a cycle
    # (checkers import this module).
    from repro.analysis import checkers  # noqa: F401


# ----------------------------------------------------------- suppressions
def parse_suppressions(
    source: str, rel_path: str
) -> tuple[dict[int, Suppression], list[Finding]]:
    """Extract suppression comments and REP000 findings from *source*.

    Returns ``(by_line, errors)`` where *by_line* maps every source line
    covered by a valid suppression (the comment's own line, plus the next
    line when the comment stands alone) to its :class:`Suppression`.
    """
    by_line: dict[int, Suppression] = {}
    errors: list[Finding] = []
    known = set(registered_rules())
    lines = source.splitlines()
    for lineno, col, comment in _iter_comments(source):
        if "repro:" not in comment:
            continue
        match = _SUPPRESS_RE.search(comment)
        if match is None:
            if re.search(r"repro:\s*allow", comment):
                errors.append(
                    Finding(
                        rule=SUPPRESSION_RULE,
                        path=rel_path,
                        line=lineno,
                        col=0,
                        message=(
                            "malformed suppression; expected "
                            "'# repro: allow[REPnnn] -- reason'"
                        ),
                    )
                )
            continue
        rules = tuple(
            r.strip() for r in match.group("rules").split(",") if r.strip()
        )
        reason = (match.group("reason") or "").strip()
        bad = [r for r in rules if r not in known or r == SUPPRESSION_RULE]
        if not rules or bad:
            errors.append(
                Finding(
                    rule=SUPPRESSION_RULE,
                    path=rel_path,
                    line=lineno,
                    col=0,
                    message=(
                        f"suppression names unknown rule(s) {bad or ['<none>']}; "
                        f"known: {sorted(known - {SUPPRESSION_RULE})}"
                    ),
                )
            )
            continue
        if not reason:
            errors.append(
                Finding(
                    rule=SUPPRESSION_RULE,
                    path=rel_path,
                    line=lineno,
                    col=0,
                    message=(
                        f"suppression of {list(rules)} has no reason; append "
                        "'-- <why this exception is sound>'"
                    ),
                )
            )
            continue
        supp = Suppression(line=lineno, rules=rules, reason=reason)
        by_line[lineno] = supp
        text = lines[lineno - 1] if lineno <= len(lines) else ""
        if not text[:col].strip():
            # Standalone comment: covers the statement below the comment
            # block (continuation comment lines are skipped over).
            target = lineno + 1
            while (
                target <= len(lines)
                and lines[target - 1].lstrip().startswith("#")
            ):
                target += 1
            by_line.setdefault(target, supp)
    return by_line, errors


def _iter_comments(source: str) -> Iterator[tuple[int, int, str]]:
    """``(line, col, text)`` of every real comment token in *source* —
    tokenizer-accurate, so '#' inside string literals and docstrings
    never reads as a suppression."""
    readline = iter(source.splitlines(keepends=True)).__next__
    try:
        for tok in tokenize.generate_tokens(readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.start[1], tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return  # unparsable files are reported by _parse_one already


# ----------------------------------------------------------------- driver
@dataclass
class Report:
    """Outcome of one analysis run."""

    root: str
    files_scanned: int
    findings: list[Finding] = field(default_factory=list)

    @property
    def unsuppressed(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.unsuppressed:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return counts


def iter_python_files(root: Path) -> Iterator[Path]:
    if root.is_file():
        yield root
        return
    yield from sorted(p for p in root.rglob("*.py") if p.is_file())


def _parse_one(
    path: Path, root: Path
) -> tuple[FileContext | None, dict[int, Suppression], list[Finding]]:
    """Parse one file: ``(ctx, suppressions, REP000 findings)``; *ctx*
    is ``None`` (with a parse-error finding) for unparsable files."""
    source = path.read_text(encoding="utf-8")
    rel_path = (
        path.name if path == root else path.relative_to(root).as_posix()
    )
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        finding = Finding(
            rule=SUPPRESSION_RULE,
            path=rel_path,
            line=int(exc.lineno or 1),
            col=int(exc.offset or 0),
            message=f"file does not parse: {exc.msg}",
        )
        return None, {}, [finding]
    ctx = FileContext(path=path, rel_path=rel_path, source=source, tree=tree)
    suppressions, errors = parse_suppressions(source, rel_path)
    return ctx, suppressions, errors


def _apply_suppression(
    finding: Finding, supp: Suppression | None
) -> Finding:
    if supp is None or finding.rule not in supp.rules:
        return finding
    return Finding(
        rule=finding.rule,
        path=finding.path,
        line=finding.line,
        col=finding.col,
        message=finding.message,
        suppressed=True,
        suppress_reason=supp.reason,
    )


def run_analysis(
    root: Path | str, rules: Iterable[str] | None = None
) -> Report:
    """Run every (selected) checker over *root* (a file or directory).

    Phases: parse everything, run the checkers file by file, apply
    suppressions centrally, then report every *unused* suppression (a
    covered line where the named rule ran but found nothing) as
    ``REP000``.
    """
    _ensure_checkers_loaded()
    root = Path(root)
    if not root.exists():
        raise FileNotFoundError(f"no such file or directory: {root}")
    wanted = set(rules) if rules is not None else None

    contexts: list[FileContext] = []
    suppression_maps: dict[str, dict[int, Suppression]] = {}
    findings: list[Finding] = []
    n_files = 0
    for path in iter_python_files(root):
        n_files += 1
        ctx, suppressions, errors = _parse_one(path, root)
        findings.extend(errors)
        if ctx is None:
            continue
        contexts.append(ctx)
        suppression_maps[ctx.rel_path] = suppressions

    executed: set[str] = set()
    raw: list[Finding] = []
    for rule_id, cls in sorted(_CHECKERS.items()):
        if wanted is not None and rule_id not in wanted:
            continue
        checker = cls()
        executed.add(rule_id)
        for ctx in contexts:
            if checker.applies_to(ctx):
                raw.extend(checker.check(ctx))

    # Central suppression application, tracking which allows fired.
    used: set[tuple[str, int, str]] = set()
    for finding in raw:
        supp = suppression_maps.get(finding.path, {}).get(finding.line)
        resolved = _apply_suppression(finding, supp)
        if resolved.suppressed:
            used.add((finding.path, supp.line, finding.rule))
        findings.append(resolved)

    # Unused suppressions: the named rule ran and matched nothing on any
    # line the comment covers.  Gated on *executed* so a --rules subset
    # never flags allows for rules that were not run.
    for rel_path, suppressions in suppression_maps.items():
        seen_lines: set[int] = set()
        for supp in suppressions.values():
            if supp.line in seen_lines:
                continue  # the same comment covers two lines
            seen_lines.add(supp.line)
            stale = [
                r
                for r in supp.rules
                if r in executed and (rel_path, supp.line, r) not in used
            ]
            if stale:
                findings.append(
                    Finding(
                        rule=SUPPRESSION_RULE,
                        path=rel_path,
                        line=supp.line,
                        col=0,
                        message=(
                            f"unused suppression: {', '.join(stale)} "
                            "produced no finding on this line; delete the "
                            "allow (or fix its rule list)"
                        ),
                    )
                )

    findings.sort(key=Finding.sort_key)
    return Report(root=str(root), files_scanned=n_files, findings=findings)
