"""tools/bench_floors.py: the floors CI holds benchmark result lines to."""

from __future__ import annotations

import importlib.util
import io
import json

import pytest

from .conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "bench_floors", REPO_ROOT / "tools" / "bench_floors.py"
)
assert _spec is not None and _spec.loader is not None
bench_floors = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_floors)

#: A traced sweep_small line with every floor held, as measured.
SWEEP_METRICS = {
    "sweep.executions": 18.0,
    "sweep.dedup_ratio": 0.667,
    "lbm.ensemble_us_per_pt": 0.35,
    "lbm.step_us_per_pt": 0.73,
}


def result_line(metrics: dict[str, float], failed: int = 0) -> str:
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": 224,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": "x"} for name, value in metrics.items()
            },
        }
    )


def floors(monkeypatch, stdin: str, workload="sweep_small", trace=1) -> int:
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    return bench_floors.main(["--workload", workload, "--trace", str(trace)])


def test_passing_line_exits_0(monkeypatch, capsys):
    # measure prints nothing after its result, but may print before it.
    stdin = "warming up\n" + result_line(SWEEP_METRICS) + "\n"
    assert floors(monkeypatch, stdin) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_broken_floor_exits_1_and_names_the_metric(monkeypatch, capsys):
    doctored = dict(SWEEP_METRICS, **{"sweep.executions": 54.0})
    assert floors(monkeypatch, result_line(doctored)) == 1
    out = capsys.readouterr().out
    assert "FAIL: sweep_small: sweep.executions 54 < 54" in out
    assert "FAIL: sweep_small: sweep.dedup_ratio" not in out


def test_metric_compared_with_a_metric(monkeypatch, capsys):
    doctored = dict(SWEEP_METRICS, **{"lbm.ensemble_us_per_pt": 0.8})
    assert floors(monkeypatch, result_line(doctored)) == 1
    assert "lbm.ensemble_us_per_pt 0.8 < lbm.step_us_per_pt" in capsys.readouterr().out


def test_missing_metric_exits_1(monkeypatch, capsys):
    untraced = {k: v for k, v in SWEEP_METRICS.items() if k != "sweep.dedup_ratio"}
    assert floors(monkeypatch, result_line(untraced)) == 1
    assert "sweep.dedup_ratio missing" in capsys.readouterr().out


@pytest.mark.parametrize(
    "stdin",
    [result_line(SWEEP_METRICS, failed=1), "", "Traceback (most recent call last):\n"],
    ids=["failed-operation", "no-output", "crash"],
)
def test_a_run_that_did_not_finish_clean_exits_1(monkeypatch, stdin):
    assert floors(monkeypatch, stdin) == 1


def test_untraced_run_needs_only_to_be_correct(monkeypatch):
    line = result_line({"mlups": 2.4})
    assert floors(monkeypatch, line, workload="channel_seq", trace=0) == 0
    assert floors(monkeypatch, line, workload="sweep_small", trace=0) == 0
