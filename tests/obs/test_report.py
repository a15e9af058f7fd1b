"""Tests for the ``repro.obs.report`` CLI: summary rendering and the
regression-gating ``compare`` mode."""

from __future__ import annotations

import copy
import io
import json
from pathlib import Path

import pytest

from repro.obs import JsonlSink, Observer
from repro.obs.report import (
    bench_metrics,
    compare_metrics,
    load_metrics,
    main,
    run_compare,
    trace_metrics,
)


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

    def test_bench_json_detected(self, tmp_path):
        doc = {
            "unit": "us_per_point",
            "benchmarks": {
                "collide_bgk": {
                    "fused": 0.5, "reference": 2.0,
                    "speedup_vs_reference": 4.0,
                },
            },
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(doc, indent=2))
        metrics = load_metrics(path)
        assert metrics == {
            "kernel.fused.collide_bgk.us_per_point": 0.5,
            "kernel.reference.collide_bgk.us_per_point": 2.0,
        }


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

    def test_trace_vs_bench_json(self, baseline_trace, tmp_path):
        """A trace's kernel table compares directly against the committed
        BENCH_kernels.json schema."""
        trace_value = 1e6 * 4e-3 / 320.0  # us/point emitted by emit_run
        doc = {
            "benchmarks": {
                "collide_bgk": {"fused": trace_value / 1.5},
            }
        }
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(doc))
        out = io.StringIO()
        assert run_compare(baseline_trace, bench, tolerance=0.10, out=out) == 1
        assert "kernel.fused.collide_bgk.us_per_point" in out.getvalue()
        # Generous tolerance: same comparison passes.
        assert run_compare(baseline_trace, bench, tolerance=1.0,
                           out=io.StringIO()) == 0

    def test_disjoint_metrics_exit_2(self, baseline_trace, tmp_path):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"benchmarks": {"other": {"fused": 1.0}}}))
        out = io.StringIO()
        assert run_compare(baseline_trace, bench, out=out) == 2
        assert "no comparable" in out.getvalue()

    def test_non_time_metrics_never_regress(self):
        candidate = {"migration.planes": 100.0, "phase.compute.mean": 1.0}
        baseline = {"migration.planes": 1.0, "phase.compute.mean": 1.0}
        assert compare_metrics(candidate, baseline, 0.10) == []

    def test_bench_metrics_skips_speedup_ratios(self):
        doc = {"benchmarks": {"stream": {"speedup_vs_reference": 9.0}}}
        assert bench_metrics(doc) == {}

    def test_bench_metrics_parses_ensemble_sizes(self):
        doc = {
            "batched": {
                "sizes": {
                    "16": {
                        "batched_us_per_point": 0.6,
                        "throughput_scenarios_per_s": 180.0,
                        "speedup_vs_sequential": 2.7,
                    }
                }
            }
        }
        metrics = bench_metrics(doc)
        assert metrics == {
            "ensemble.n16.batched_us_per_point": 0.6,
            "ensemble.n16.throughput_scenarios_per_s": 180.0,
        }

    def test_throughput_drop_is_a_regression(self):
        base = {"ensemble.n16.throughput_scenarios_per_s": 200.0}
        slow = {"ensemble.n16.throughput_scenarios_per_s": 120.0}
        (reg,) = compare_metrics(slow, base, 0.10)
        assert reg[0] == "ensemble.n16.throughput_scenarios_per_s"
        assert reg[3] == pytest.approx(0.40)
        # A throughput *gain* never flags.
        fast = {"ensemble.n16.throughput_scenarios_per_s": 400.0}
        assert compare_metrics(fast, base, 0.10) == []

    def test_committed_bench_meets_batched_speedup_floor(self):
        """The acceptance criterion of the batched engine: committed
        BENCH_kernels.json must show >= 2x throughput-per-scenario over
        the sequential fused sweep at N=16 — and, the stack being the
        same fused kernels on a (1, *S) grid, no loss at N=1 (it read
        0.61x on the former stacked-reference kernels)."""
        doc = json.loads(Path("BENCH_kernels.json").read_text())
        sizes = doc["batched"]["sizes"]
        assert sizes["16"]["speedup_vs_sequential"] >= 2.0
        assert sizes["1"]["speedup_vs_sequential"] >= 0.95

    def test_bench_metrics_parses_serve_duplicates(self):
        doc = {
            "serve": {
                "duplicates": {
                    "0.9": {
                        "jobs_per_second": 900.0,
                        "p99_latency_seconds": 0.007,
                        "cache_hit_rate": 0.9,
                        "speedup_vs_sequential": 4.4,
                        "verified_bit_identical": True,
                    }
                }
            }
        }
        metrics = bench_metrics(doc)
        # ratios and booleans are not comparable metrics
        assert metrics == {
            "serve.dup0.9.jobs_per_second": 900.0,
            "serve.dup0.9.p99_latency_seconds": 0.007,
            "serve.dup0.9.cache_hit_rate": 0.9,
        }

    def test_serve_rate_metrics_regress_on_drops_only(self):
        base = {
            "serve.dup0.9.jobs_per_second": 900.0,
            "serve.dup0.9.cache_hit_rate": 0.9,
            "serve.dup0.9.p99_latency_seconds": 0.007,
        }
        worse = {
            "serve.dup0.9.jobs_per_second": 450.0,
            "serve.dup0.9.cache_hit_rate": 0.4,
            "serve.dup0.9.p99_latency_seconds": 0.030,
        }
        names = {r[0] for r in compare_metrics(worse, base, 0.10)}
        assert names == set(base)
        # gains in rates and drops in latency never flag
        better = {
            "serve.dup0.9.jobs_per_second": 1800.0,
            "serve.dup0.9.cache_hit_rate": 1.0,
            "serve.dup0.9.p99_latency_seconds": 0.001,
        }
        assert compare_metrics(better, base, 0.10) == []

    def test_committed_serve_bench_meets_dedup_floor(self):
        """The serving acceptance criterion: committed BENCH_serve.json
        must show >= 2x served throughput over naive sequential
        submission on the 90%-duplicates stream, with a cache hit-rate
        of at least 0.8, every row verified bit-identical."""
        doc = json.loads(Path("BENCH_serve.json").read_text())
        row = doc["serve"]["duplicates"]["0.9"]
        assert row["speedup_vs_sequential"] >= 2.0
        assert row["cache_hit_rate"] >= 0.8
        assert all(
            v["verified_bit_identical"]
            for v in doc["serve"]["duplicates"].values()
        )

    def test_compare_survives_zero_baseline_rate(self):
        """The 0%-duplicates row legitimately reports cache_hit_rate 0.0;
        a self-compare of the committed serve bench must not divide by it
        and must report no regressions."""
        out = io.StringIO()
        code = run_compare("BENCH_serve.json", "BENCH_serve.json", out=out)
        assert code == 0
        assert "no regressions" in out.getvalue()


class TestAgainstRealBench:
    def test_committed_bench_file_loads(self):
        """The repo's own BENCH_kernels.json parses into kernel metrics so
        `compare trace BENCH_kernels.json` has something to diff."""
        metrics = load_metrics("BENCH_kernels.json")
        assert any(k.endswith(".us_per_point") for k in metrics)
        assert all(v > 0 for v in metrics.values())
