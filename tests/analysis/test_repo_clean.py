"""The committed tree must satisfy its own invariants.

This is the static twin of the runtime pins: the tracemalloc test pins
zero-allocation on the paths it runs, the golden-run test pins
determinism for the traces it records — these assertions pin both
invariants for every line of ``src/``.
"""

from __future__ import annotations

from repro.analysis import run_analysis
from repro.util.hotpath import HOT_PATH_REGISTRY

from .conftest import SRC_ROOT


def test_src_tree_has_no_unsuppressed_findings():
    report = run_analysis(SRC_ROOT)
    assert report.files_scanned > 50
    offenders = "\n".join(f.format() for f in report.unsuppressed)
    assert report.unsuppressed == [], f"fix or suppress-with-reason:\n{offenders}"


def test_whole_program_rules_actually_ran_on_src():
    # The project-level pass must not be vacuous: the call graph has to
    # see the hot kernels, the communicator calls and the async serve
    # layer for the REP008-REP010 clean bill to mean anything.
    from repro.analysis.core import (
        ProjectContext,
        _parse_one,
        iter_python_files,
    )

    contexts = []
    for path in iter_python_files(SRC_ROOT):
        ctx, _, _ = _parse_one(path, SRC_ROOT)
        if ctx is not None:
            contexts.append(ctx)
    graph = ProjectContext(root=SRC_ROOT, files=contexts).callgraph
    hot = [s for s in graph.functions.values() if s.is_hot]
    assert len(hot) >= 10, "the fused kernels and helpers must be summarized"
    comm_calls = sum(len(s.comm_calls) for s in graph.functions.values())
    assert comm_calls >= 20, "halo/driver/transport protocol must be visible"
    async_serve = [
        s
        for s in graph.functions.values()
        if s.is_async and "serve" in s.path
    ]
    assert len(async_serve) >= 5, "the scheduler's coroutines must be visible"
    resolved = sum(
        1 for s in graph.functions.values() for c in s.calls if c.resolved
    )
    assert resolved > 500, "resolution must produce a real edge set"


def test_no_suppression_in_src_is_stale():
    # REP000 "unused suppression" findings are unsuppressed findings, so
    # the clean gate above already fails on them; assert explicitly too
    # so a stale allow is named when it rots.
    report = run_analysis(SRC_ROOT)
    stale = [
        f
        for f in report.findings
        if f.rule == "REP000" and "unused suppression" in f.message
    ]
    assert stale == [], "\n".join(f.format() for f in stale)


def test_every_suppression_in_src_carries_a_reason():
    report = run_analysis(SRC_ROOT)
    assert report.suppressed, "the fused cold fallbacks should be suppressed"
    for finding in report.suppressed:
        assert finding.suppress_reason, finding.format()
        assert len(finding.suppress_reason) > 10, (
            f"reason too thin to justify an exception: {finding.format()}"
        )


def test_fused_backend_kernels_are_registered_hot_paths():
    import repro.lbm.backends.fused  # noqa: F401 - registration side effect

    hot = {
        name.rsplit(".", 1)[-1]
        for name in HOT_PATH_REGISTRY
        if name.startswith("repro.lbm.backends.fused.")
    }
    assert {
        "stream",
        "bounce_back",
        "equilibrium",
        "collide_bgk",
        "shan_chen_force",
        "moments",
        "forces_and_velocities",
    } <= hot


def test_batched_backend_kernels_are_registered_hot_paths():
    """The ensemble has no kernels of its own to register: the stack
    steps on the (hot-path registered) ``fused`` ones."""
    from repro.lbm.backends import KERNEL_NAMES
    from repro.lbm.ensemble import BatchedEnsemble, EnsembleSpec, MemberParams
    from repro.lbm.lattice import D2Q9
    from repro.util.hotpath import is_hot_path
    from tests.lbm.test_backends import two_component_config

    spec = EnsembleSpec(
        base=two_component_config(D2Q9), members=(MemberParams(),) * 2
    )
    backend = BatchedEnsemble(spec).backend
    assert type(backend).__module__ == "repro.lbm.backends.fused"
    for kernel in KERNEL_NAMES:
        assert is_hot_path(getattr(backend, kernel)), kernel
