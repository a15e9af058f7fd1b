"""Tests of the benchmark itself: ``python -m pytest bench/tests -q``.

Not collected by the repo's tier-1 suite (``testpaths = ["tests"]``).
Everything runs at ``--smoke`` size; no number taken here means anything.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from bench import harness  # noqa: E402
from bench.compare import compare  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(cwd))
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )  # fmt: skip


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory) -> dict[str, dict]:
    """One smoke ``run`` and one smoke ``trace`` of every workload,
    through the real command line."""
    out = tmp_path_factory.mktemp("bench")
    docs = {}
    for mode in ("run", "trace"):
        path = out / f"{mode}.json"
        proc = run_cli(mode, "--smoke", "--seed", "5", "--seconds", "0.5", "--out", str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        docs[mode] = json.loads(path.read_text())
    return docs


def test_manifest_declares_exactly_the_emitted_names():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert manifest["paths"] == ["bench"]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == [(name, unit, better, bound) for name, (unit, better, bound, _) in END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in PER_LAYER.items()
    ]
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_smoke_emits_every_declared_metric_with_a_finite_value(smoke_results):
    for mode, declared in (("run", END_TO_END), ("trace", PER_LAYER)):
        workloads = smoke_results[mode]["workloads"]
        assert set(workloads) == set(WORKLOADS)
        for name, doc in workloads.items():
            assert doc["failed"] == 0, doc["failures"]
            assert set(doc["metrics"]) == set(declared), name
            for metric, entry in doc["metrics"].items():
                assert math.isfinite(entry["value"]), (name, metric)
                assert entry["unit"] == declared[metric][0]
    for doc in smoke_results["run"]["workloads"].values():
        assert all(entry["value"] > 0 for entry in doc["metrics"].values())
    envelope = smoke_results["run"]["envelope"]
    assert {"git_sha", "seed", "nproc", "cpu_model", "python", "blas_threads"} <= set(envelope)


def test_layers_separate_as_designed(smoke_results):
    trace = {n: d["metrics"] for n, d in smoke_results["trace"]["workloads"].items()}
    value = lambda workload, metric: trace[workload][metric]["value"]  # noqa: E731
    # A layer off a workload's path reads exactly 0 there.
    assert value("channel_seq", "parallel.self_frac") == 0
    assert value("channel_seq", "serve.executions") == 0
    assert value("sweep_small", "parallel.step_phase_s") == 0
    assert value("channel_par", "sweep.call_s") == 0
    # ... and is measured where it is on the path.
    assert value("channel_par", "parallel.halo_msgs_per_phase") > 0
    assert value("channel_nonded", "ckpt.generations_written") >= 1
    assert value("channel_nonded", "parallel.planes_migrated") > 0
    assert value("serve_open", "serve.executions") > 0
    assert value("sweep_small", "sweep.executions") > 0
    for workload in trace:
        shares = sum(v["value"] for k, v in trace[workload].items() if k.endswith(".self_frac"))
        assert shares == pytest.approx(1.0)


def test_exact_counts_repeat(smoke_results, tmp_path):
    """Counts the program makes are identical between two traced runs."""
    path = tmp_path / "again.json"
    workloads = ["channel_par", "channel_nonded", "serve_open", "sweep_small"]
    proc = run_cli(
        "trace", "--smoke", "--seed", "5", "--seconds", "0.5", "--out", str(path),
        "--workload", *workloads,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stdout + proc.stderr
    again = json.loads(path.read_text())["workloads"]
    first = smoke_results["trace"]["workloads"]
    for workload in workloads:
        for metric in (
            "parallel.planes_migrated",
            "parallel.halo_msgs_per_phase",
            "parallel.halo_bytes_per_phase",
            "ckpt.generations_written",
            "serve.executions",
            "sweep.executions",
        ):
            assert (
                again[workload]["metrics"][metric]["value"]
                == first[workload]["metrics"][metric]["value"]
            ), (workload, metric)


def test_span_self_times_sum_to_the_root_span(smoke_results):
    """Sequential workload: nested, non-overlapping spans telescope."""
    from bench.tracing import self_times

    lines = (harness.OUT_DIR / "trace-channel_seq.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert {r["workload"] for r in records} == {"channel_seq"}
    spans = [(r["id"], r["name"], r["start"], r["end"], r["parent"]) for r in records]
    roots = [s for s in spans if s[4] is None]
    assert [s[1] for s in roots] == ["bench.channel_seq"]
    root_duration = roots[0][3] - roots[0][2]
    assert sum(self_times(spans).values()) == pytest.approx(root_duration, rel=0.01)


def test_corrupted_result_fails_verification_and_the_exit_code(tmp_path, monkeypatch, capsys):
    """Flip one element of ``f`` behind the benchmark's back: the
    bit-identity check must fail, raise ``failed`` and the exit code."""
    from bench.__main__ import main
    from bench.child import measure
    from bench.workloads import ChannelPar

    workload = ChannelPar(5, 0.2, "smoke", tmp_path)
    workload.setup()
    run_once = workload.run_once

    def corrupting_run_once(spec):
        result, wall = run_once(spec)
        result.f.flat[7] += 1e-9
        return result, wall

    workload.run_once = corrupting_run_once
    doc = dict(measure(workload), workload="channel_par", setup_s=1.0)
    assert doc["failed"] == 1 and doc["attempted"] > doc["failed"]
    assert any("differs from the sequential run" in f for f in doc["failures"])

    monkeypatch.setattr(harness, "run_child", lambda *args, **kwargs: dict(doc))
    argv = ["measure", "--workload", "channel_par", "--seed", "5", "--seconds", "1", "--trace", "0"]
    assert main(argv) == 1
    line = json.loads(capsys.readouterr().out)
    assert line["correct"] is False and line["failed"] == 1


def test_saturated_open_loop_is_invalid():
    from bench.workloads import ServeOpen

    workload = ServeOpen.__new__(ServeOpen)
    workload.report = {"gen_lag_s": [0.001] * 20, "backlog_s": 3.0}
    problems = workload.validity()
    assert len(problems) == 1 and "backlog" in problems[0]
    workload.report = {"gen_lag_s": [0.03] * 20, "backlog_s": 0.1}
    assert "generator lag" in workload.validity()[0]


def test_invalid_or_failed_run_exits_non_zero(monkeypatch, capsys):
    from bench.__main__ import main

    def fake_child(workload, mode, **kwargs):
        if mode == "setup":
            return {"setup_s": 1.0}
        summary = {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 1}
        return {
            "workload": workload, "setup_s": 1.0, "attempted": 10, "failed": 0,
            "failures": [], "invalid": ["generator lag p95 32.0 ms > 20 ms"],
            "summaries": {m: dict(summary) for m in END_TO_END if m != "setup_s"},
        }  # fmt: skip

    monkeypatch.setattr(harness, "run_child", fake_child)
    argv = ["measure", "--workload", "serve_open", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert main(argv) == 1
    assert "latency_p50_s" not in capsys.readouterr().out  # no latency emitted


def test_watchdog_records_a_hung_child_as_failed(monkeypatch):
    monkeypatch.setattr(harness, "watchdog_s", lambda seconds: 0.5)
    doc = harness.measure_workload("channel_nonded", seed=1, seconds=30.0, size="smoke")
    assert doc["failed"] == 1 and "watchdog" in doc["failures"][0]
    assert not list(harness.OUT_DIR.glob(f"tmp-{os.getpid()}-*"))


def test_compare_verdicts():
    def result(mlups, q1, q3, sha="a"):
        summaries = {
            name: {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 5} for name in END_TO_END
        }
        summaries["mlups"] = {"median": mlups, "q1": q1, "q3": q3, "n": 5}
        doc = {"summaries": summaries, "failed": 0, "physics": {"f_sha256": sha}}
        return {"envelope": {"seed": 0}, "workloads": {"channel_seq": doc}}

    base = result(2.0, 1.98, 2.02)
    assert compare(base, result(1.9, 1.88, 1.92))[1] is False  # -5 %: within the bound
    assert compare(base, result(1.4, 1.38, 1.42))[1] is True  # -30 %: regressed
    noisy = compare(base, result(1.4, 1.0, 2.1))
    assert noisy[1] is False and any("unresolved" in line for line in noisy[0])
    drift = compare(base, result(2.0, 1.98, 2.02, sha="b"))
    assert drift[1] is True and any("PHYSICS DIFFERS" in line for line in drift[0])


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the command
    exits non-zero and prints no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = run_cli(
        "measure", "--workload", "channel_seq", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
