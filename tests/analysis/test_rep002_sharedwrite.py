"""REP002: cross-rank shared-state writes in ``repro/parallel/``."""

from __future__ import annotations

from repro.analysis import run_analysis
from repro.analysis.checkers import sharedwrite

from .conftest import SRC_ROOT

PARALLEL = "repro/parallel/fixture.py"


def _rep002(report):
    return [f for f in report.unsuppressed if f.rule == "REP002"]


def test_unguarded_write_through_parameter_is_flagged(analyze):
    report = analyze(
        """\
        def worker(shared, rank):
            shared[rank] = rank * 2
        """,
        rel=PARALLEL,
        rules=["REP002"],
    )
    (finding,) = _rep002(report)
    assert "a parameter" in finding.message
    assert "'worker'" in finding.message


def test_mutator_call_on_closure_global_is_flagged(analyze):
    report = analyze(
        """\
        results = []

        def collect(rank):
            results.append(rank)
        """,
        rel=PARALLEL,
        rules=["REP002"],
    )
    (finding,) = _rep002(report)
    assert "closure/global" in finding.message


def test_write_through_mailbox_fabric_is_flagged_even_on_self(analyze):
    report = analyze(
        """\
        class Comm:
            def poke(self, key, value):
                self._world.channels[key] = value
        """,
        rel=PARALLEL,
        rules=["REP002"],
    )
    (finding,) = _rep002(report)
    assert "mailbox fabric" in finding.message


def test_lock_guarded_write_passes(analyze):
    report = analyze(
        """\
        def worker(shared, lock, rank):
            with lock:
                shared[rank] = rank
        """,
        rel=PARALLEL,
        rules=["REP002"],
    )
    assert _rep002(report) == []


def test_local_state_and_self_attributes_pass(analyze):
    report = analyze(
        """\
        class Rank:
            def step(self):
                acc = []
                acc.append(1)
                self.counter = len(acc)
                return acc
        """,
        rel=PARALLEL,
        rules=["REP002"],
    )
    assert _rep002(report) == []


def test_constructors_are_exempt(analyze):
    report = analyze(
        """\
        class Comm:
            def __init__(self, world):
                world.channels[(0, 1)] = None
                self._world = world
        """,
        rel=PARALLEL,
        rules=["REP002"],
    )
    assert _rep002(report) == []


def test_sanctioned_transport_api_is_exempt(analyze):
    report = analyze(
        """\
        class ThreadCommunicator:
            def isend(self, dest, tag, payload):
                self._world.channels[(self._rank, dest)].put((tag, payload))
        """,
        rel="repro/parallel/threads.py",
        rules=["REP002"],
    )
    assert _rep002(report) == []


def test_same_code_outside_sanctioned_qualname_is_flagged(analyze):
    report = analyze(
        """\
        class ThreadCommunicator:
            def sneak(self, dest, tag, payload):
                self._world.channels[(self._rank, dest)].put((tag, payload))
        """,
        rel="repro/parallel/threads.py",
        rules=["REP002"],
    )
    assert len(_rep002(report)) == 1


def test_rule_is_scoped_to_parallel_package(analyze):
    report = analyze(
        """\
        def worker(shared, rank):
            shared[rank] = rank
        """,
        rel="repro/cluster/fixture.py",
        rules=["REP002"],
    )
    assert _rep002(report) == []


def test_every_sanctioned_qualname_excuses_a_real_finding(monkeypatch):
    # The sanction list's twin of REP000's "unused suppression": with the
    # list emptied, every entry must own at least one finding in src/, so
    # an entry outlives neither a rename nor the write it excused.
    sanctioned = dict(sharedwrite.SANCTIONED)
    monkeypatch.setattr(sharedwrite, "SANCTIONED", {})
    findings = run_analysis(SRC_ROOT, rules=["REP002"]).findings
    dead = [
        f"{path}::{qualname}"
        for path, qualnames in sanctioned.items()
        for qualname in sorted(qualnames)
        if not any(
            f.path == path
            and (f"'{qualname}'" in f.message or f"'{qualname}." in f.message)
            for f in findings
        )
    ]
    assert dead == [], f"sanctioned but never written through: {dead}"
