"""The committed tree must satisfy its own invariants.

This is the static twin of the runtime pins: the tracemalloc test pins
zero-allocation on the paths it runs, the golden-run test pins
determinism for the traces it records — these assertions pin both
invariants for every line of ``src/``.
"""

from __future__ import annotations

import pytest

from repro.analysis import Report, run_analysis
from repro.util.hotpath import HOT_PATH_REGISTRY

from .conftest import SRC_ROOT


@pytest.fixture(scope="module")
def report() -> Report:
    """One analysis of ``src/`` shared by every test below."""
    return run_analysis(SRC_ROOT)


def test_src_tree_has_no_unsuppressed_findings(report):
    assert report.files_scanned > 50
    offenders = "\n".join(f.format() for f in report.unsuppressed)
    assert report.unsuppressed == [], f"fix or suppress-with-reason:\n{offenders}"


def test_no_suppression_in_src_is_stale(report):
    # REP000 "unused suppression" findings are unsuppressed findings, so
    # the clean gate above already fails on them; assert explicitly too
    # so a stale allow is named when it rots.
    stale = [
        f
        for f in report.findings
        if f.rule == "REP000" and "unused suppression" in f.message
    ]
    assert stale == [], "\n".join(f.format() for f in stale)


def test_every_suppression_in_src_carries_a_reason(report):
    # Not vacuous: the fused cold fallbacks (REP001), the thread
    # cluster's result slots (REP002) and the fault injector's in-place
    # corruption (REP005) are real findings the rules must still see.
    assert {f.rule for f in report.suppressed} == {"REP001", "REP002", "REP005"}
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
    from tests.lbm.test_backends import two_component_config

    spec = EnsembleSpec(
        base=two_component_config(D2Q9), members=(MemberParams(),) * 2
    )
    backend = BatchedEnsemble(spec).backend
    assert type(backend).__module__ == "repro.lbm.backends.fused"
    for kernel in KERNEL_NAMES:
        assert getattr(getattr(backend, kernel), "__hot_path__", False), kernel
