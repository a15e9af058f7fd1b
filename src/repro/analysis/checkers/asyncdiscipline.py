"""REP009 — asyncio discipline in ``repro.serve``.

The serve layer's latency (the benchmark's ``serve_open`` workload)
depends on the event loop never being stalled: one synchronous
``repro.api.run`` on the loop serializes every concurrent client.
Three shapes are checked over the call graph:

1. **Blocking call reachable from ``async def``** — ``time.sleep``,
   ``subprocess``, file I/O, or a call chain that reaches
   ``repro.api.run``/``run_batch``, without an executor hop.  The
   sanctioned idiom passes by construction: ``asyncio.to_thread(fn,
   ...)`` passes *fn* by reference, so no call edge exists and the
   sync helper is invisible from the coroutine.
2. **Coroutine called but never awaited** — a bare expression statement
   calling an ``async def`` without ``await``/``create_task``/
   ``ensure_future``/``gather`` silently does nothing.
3. **Sync lock held across ``await``** — ``with <lock-like>:`` whose
   body awaits parks every other task on a thread lock; use
   ``asyncio.Lock`` (``async with``) instead.

Chains may pass through modules outside ``repro.serve`` (the scope
only gates where findings land); unresolved dispatch (callables passed
as values, ``getattr``) is a documented soundness limit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.core import (
    Finding,
    FileContext,
    ProjectChecker,
    ProjectContext,
    register_checker,
)

if TYPE_CHECKING:  # runtime import is lazy: flow imports this package
    from repro.analysis.flow import CallSite, FunctionSummary

#: Scanned functions that block by doing a full solver run, even though
#: their bodies contain no syscall-shaped blocking site.
BLOCKING_QUALNAMES = {"repro.api.run", "repro.api.run_batch"}


@register_checker
class AsyncDisciplineChecker(ProjectChecker):
    rule = "REP009"
    title = "asyncio discipline: no blocking on the event loop, no stray coroutines"

    def applies_to(self, ctx: FileContext) -> bool:
        return "serve" in ctx.module_parts

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        scoped = self.scoped_paths(project)
        graph = project.callgraph
        for summary in graph.functions.values():
            if summary.path not in scoped:
                continue
            if summary.is_async:
                yield from self._check_blocking(graph, summary)
                yield from self._check_locks(summary)
            yield from self._check_stray_coroutines(graph, summary)

    # ------------------------------------------------- blocking reachability
    def _check_blocking(self, graph, summary: FunctionSummary) -> Iterator[Finding]:
        for site in summary.blocking:
            yield Finding(
                rule=self.rule,
                path=summary.path,
                line=site.line,
                col=site.col,
                message=(
                    f"async '{summary.name}' performs blocking {site.what} "
                    "directly on the event loop; move it behind "
                    "asyncio.to_thread() or run_in_executor()"
                ),
            )
        for first_site, callee, chain in graph.reachable_calls(
            summary.qualname, enter=lambda c: not c.is_async
        ):
            if callee.is_async:
                continue  # awaited coroutines are checked on their own
            hop = " -> ".join(q.rsplit(".", 1)[-1] for q in chain)
            if callee.qualname in BLOCKING_QUALNAMES:
                yield self._at(
                    summary,
                    first_site,
                    f"async '{summary.name}' runs the solver synchronously "
                    f"on the event loop via {hop}; wrap the sync call in "
                    "asyncio.to_thread()",
                )
            elif callee.blocking:
                site = callee.blocking[0]
                yield self._at(
                    summary,
                    first_site,
                    f"async '{summary.name}' reaches blocking {site.what} "
                    f"({callee.path}:{site.line}) via {hop} without an "
                    "executor hop",
                )

    # ------------------------------------------------------ stray coroutines
    def _check_stray_coroutines(
        self, graph, summary: FunctionSummary
    ) -> Iterator[Finding]:
        for call in summary.calls:
            if not call.bare_expr or call.awaited or call.scheduled:
                continue
            if call.resolved is None:
                continue
            callee = graph.functions.get(call.resolved)
            if callee is None or not callee.is_async:
                continue
            yield self._at(
                summary,
                call,
                f"coroutine '{callee.name}' is called but never awaited or "
                "scheduled — the call creates a coroutine object and "
                "discards it",
            )

    # ------------------------------------------------------ locks over await
    def _check_locks(self, summary: FunctionSummary) -> Iterator[Finding]:
        for line, col, text in summary.sync_locks_across_await:
            yield Finding(
                rule=self.rule,
                path=summary.path,
                line=line,
                col=col,
                message=(
                    f"sync lock 'with {text}' in async '{summary.name}' is "
                    "held across an await; every other task parks on a "
                    "thread lock — use asyncio.Lock with 'async with'"
                ),
            )

    def _at(
        self, summary: FunctionSummary, site: CallSite, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule,
            path=summary.path,
            line=site.line,
            col=site.col,
            message=message,
        )
