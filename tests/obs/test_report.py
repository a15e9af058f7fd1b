"""Tests for the ``repro.obs.report`` CLI: summary rendering and the
regression-gating ``compare`` mode."""

from __future__ import annotations

import io

import pytest

from repro.obs import JsonlSink, Observer
from repro.obs.report import compare_metrics, load_metrics, main, run_compare


def emit_run(observer, compute_scale=1.0):
    """Synthesize a small but complete 2-rank trace: run metadata, phase
    timings, one migration round, kernel metrics."""
    observer.emit(
        "run_start", n_ranks=2, backend="fused", policy="filtered",
        shape=[16, 10], phases=4,
    )
    for rank in (0, 1):
        child = observer.child(rank)
        for phase in range(1, 5):
            child.emit(
                "phase", phase=phase, planes=8,
                t_collide=1e-3 * compute_scale,
                t_halo_f=2e-4, t_stream_bounce=5e-4 * compute_scale,
                t_moments=3e-4 * compute_scale, t_halo_rho=1e-4,
                t_total=2.1e-3, halo_f_bytes=5120, halo_rho_bytes=640,
            )
    observer.child(0).emit(
        "migrate", round=1, action="send", axis="x", direction="high",
        planes=1, bytes=23040,
    )
    observer.child(1).emit(
        "migrate", round=1, action="recv", axis="x", direction="low",
        planes=1, bytes=23040,
    )
    hist = observer.histogram("kernel.fused.collide_bgk")
    hist.observe(4e-3 * compute_scale)
    observer.counter("kernel.fused.collide_bgk.points").add(320.0)
    observer.emit_metrics()


def write_trace(path, compute_scale=1.0):
    with JsonlSink(path) as sink:
        emit_run(Observer(sink=sink), compute_scale=compute_scale)
    return path


@pytest.fixture()
def baseline_trace(tmp_path):
    return write_trace(tmp_path / "baseline.jsonl")


class TestSummary:
    def test_renders_all_sections(self, baseline_trace, capsys):
        assert main(["summary", str(baseline_trace)]) == 0
        text = capsys.readouterr().out
        assert "run: n_ranks=2, backend=fused" in text
        assert "per-rank execution profile" in text
        assert "migration summary" in text
        assert "kernel timings" in text
        assert "fused.collide_bgk" in text

    def test_empty_trace_is_graceful(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["summary", str(path)]) == 0
        assert "no recognized events" in capsys.readouterr().out


class TestTraceMetrics:
    def test_expected_metric_names(self, baseline_trace):
        metrics = load_metrics(baseline_trace)
        assert metrics["phase.rank0.compute.mean"] == pytest.approx(1.8e-3)
        assert metrics["phase.compute.mean"] == pytest.approx(1.8e-3)
        assert metrics["migration.planes"] == 1.0
        assert metrics["kernel.fused.collide_bgk.us_per_point"] == (
            pytest.approx(1e6 * 4e-3 / 320.0)
        )


class TestCompare:
    def test_identical_traces_pass(self, baseline_trace, capsys):
        exit_code = main(
            ["compare", str(baseline_trace), str(baseline_trace)]
        )
        assert exit_code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_slowdown_fails(self, baseline_trace, tmp_path, capsys):
        """The acceptance criterion: >10% slower compute must exit nonzero."""
        slow = write_trace(tmp_path / "slow.jsonl", compute_scale=1.25)
        exit_code = main(["compare", str(slow), str(baseline_trace)])
        assert exit_code == 1
        text = capsys.readouterr().out
        assert "REGRESSION" in text
        assert "phase.compute.mean" in text

    def test_slowdown_within_tolerance_passes(self, baseline_trace, tmp_path):
        slow = write_trace(tmp_path / "slow.jsonl", compute_scale=1.25)
        out = io.StringIO()
        assert run_compare(slow, baseline_trace, tolerance=0.5, out=out) == 0

    def test_speedup_never_flags(self, baseline_trace, tmp_path):
        fast = write_trace(tmp_path / "fast.jsonl", compute_scale=0.5)
        out = io.StringIO()
        assert run_compare(fast, baseline_trace, tolerance=0.10, out=out) == 0

    def test_disjoint_metrics_exit_2(self, baseline_trace, tmp_path):
        bare = tmp_path / "bare.jsonl"
        with JsonlSink(bare) as sink:
            Observer(sink=sink).emit("run_start", n_ranks=1, phases=0)
        out = io.StringIO()
        assert run_compare(baseline_trace, bare, out=out) == 2
        assert "no comparable" in out.getvalue()

    def test_non_time_metrics_never_regress(self):
        candidate = {"migration.planes": 100.0, "phase.compute.mean": 1.0}
        baseline = {"migration.planes": 1.0, "phase.compute.mean": 1.0}
        assert compare_metrics(candidate, baseline, 0.10) == []

    def test_compare_survives_zero_baseline_rate(self, tmp_path):
        """A phase without halo traffic legitimately reports a zero halo
        mean; a self-compare must not divide by it and must report no
        regressions."""
        path = tmp_path / "no_halo.jsonl"
        with JsonlSink(path) as sink:
            Observer(sink=sink).child(0).emit(
                "phase", phase=1, planes=8, t_collide=1e-3,
                t_stream_bounce=5e-4, t_moments=3e-4,
            )
        assert load_metrics(path)["phase.rank0.halo.mean"] == 0.0
        out = io.StringIO()
        assert run_compare(path, path, out=out) == 0
        assert "no regressions" in out.getvalue()
