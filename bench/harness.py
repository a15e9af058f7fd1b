"""The harness process: spawns one child per workload run, one after
another and never concurrently, under a watchdog; assembles the result
envelope, the stdout table and the JSON result file.

It imports neither numpy nor ``repro`` and adds no threads: the rank
worlds and serve workers it measures are the program's own.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from bench.child import BLAS_VARS
from bench.metrics import END_TO_END, PER_LAYER
from bench.stats import summarize

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"

#: Children per ``setup_s`` value: the measuring child plus set-up-only
#: ones; the metric is the median over all of them.  Smoke runs
#: (bench/tests) check plumbing, not set-up time.
SETUP_SAMPLES = {"full": 3, "smoke": 1}


def require_program() -> None:
    """The checkout may hold the benchmark but not the program."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")


def child_env(*, pinned: bool = True) -> dict[str, str]:
    """The child's environment: the checkout's own ``src`` first on the
    path, BLAS pinned to one thread, and no ``REPRO_*`` overlay that
    would silently change what ``api.run`` dispatches to."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in BLAS_VARS:
        env.pop(var, None)
        if pinned:
            env[var] = "1"
    return env


def watchdog_s(seconds: float) -> float:
    """Three times the expected wall of one child (measuring window plus
    set-up and verification)."""
    return 3.0 * (seconds + 15.0)


def run_child(
    workload: str,
    mode: str,
    *,
    seed: int,
    seconds: float,
    size: str = "full",
    pinned: bool = True,
) -> dict[str, Any]:
    """Run one child to completion and return its JSON document, or an
    ``{"error": ...}`` document when it crashed, printed nothing, or had
    to be killed by the watchdog.  The child and everything it forked are
    reaped before this returns."""
    tmp = OUT_DIR / f"tmp-{os.getpid()}-{workload}"
    cmd = [
        sys.executable, "-m", "bench.child",
        "--workload", workload, "--mode", mode, "--seed", str(seed),
        "--seconds", str(seconds), "--size", size, "--tmp", str(tmp),
        "--t0", repr(time.perf_counter()),
    ]  # fmt: skip
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(pinned=pinned),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,  # own process group: the watchdog kills forked ranks too
    )
    try:
        stdout, _ = proc.communicate(timeout=watchdog_s(seconds))
        error = None if proc.returncode == 0 else f"child exited with code {proc.returncode}"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        error = f"watchdog: killed after {watchdog_s(seconds):.0f} s"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if error is None:
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            error = "child printed no result"
    return {"workload": workload, "mode": mode, "error": error}


def failed_doc(workload: str, error: str) -> dict[str, Any]:
    """A workload that crashed or hung is one failed operation, recorded
    rather than hanging or aborting the whole run."""
    return {
        "workload": workload,
        "attempted": 1,
        "failed": 1,
        "failures": [f"{workload}: {error}"],
        "invalid": [],
        "metrics": {},
    }


def measure_workload(
    workload: str, *, seed: int, seconds: float, size: str = "full"
) -> dict[str, Any]:
    """End-to-end metrics of one workload, tracing off: the set-up-only
    children, then the measuring child."""
    setups: list[float] = []
    for _ in range(SETUP_SAMPLES[size] - 1):
        doc = run_child(workload, "setup", seed=seed, seconds=seconds, size=size)
        if "error" in doc:
            return failed_doc(workload, doc["error"])
        setups.append(doc["setup_s"])
    doc = run_child(workload, "measure", seed=seed, seconds=seconds, size=size)
    if "error" in doc:
        return failed_doc(workload, doc["error"])
    setups.append(doc["setup_s"])
    summaries = dict(doc.pop("summaries"), setup_s=summarize(setups))
    doc["summaries"] = summaries
    doc["metrics"] = {
        name: {"value": summaries[name]["median"], "unit": END_TO_END[name][0]}
        for name in END_TO_END
    }
    if doc["invalid"]:
        # A saturated open loop measured its queue: no numbers, and the
        # run counts as failed.
        doc["metrics"] = {}
        doc["failed"] += 1
        doc["failures"] += [f"{workload}: invalid run: {why}" for why in doc["invalid"]]
    return doc


def trace_workload(
    workload: str, *, seed: int, seconds: float, size: str = "full"
) -> dict[str, Any]:
    """Per-layer metrics of one workload from its separate traced run."""
    doc = run_child(workload, "trace", seed=seed, seconds=seconds, size=size)
    if "error" in doc:
        return failed_doc(workload, doc["error"])
    values = doc.pop("layer_metrics")
    doc["metrics"] = {
        name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER
    }
    return doc


def contract_line(doc: dict[str, Any]) -> str:
    """The one-line result the benchmark contract asks for."""
    return json.dumps(
        {
            "correct": doc["failed"] == 0,
            "attempted": max(1, int(doc["attempted"])),
            "failed": int(doc["failed"]),
            "metrics": doc["metrics"],
        }
    )


def envelope(seed: int, seconds: float, size: str) -> dict[str, Any]:
    return {
        "git_sha": git_sha(),
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "blas_threads": {var: "1" for var in BLAS_VARS},
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_all(
    mode: str,
    workloads: list[str],
    *,
    seed: int,
    seconds: float,
    size: str,
    out: Path,
) -> int:
    """``python -m bench run`` / ``trace``: every workload in turn, a
    table on stdout, the result file at *out*; non-zero when anything
    failed or was invalid."""
    one = measure_workload if mode == "run" else trace_workload
    result = {"mode": mode, "envelope": envelope(seed, seconds, size), "workloads": {}}
    print(f"{'workload':<16}{'metric':<40}{'value':>16}  unit")
    for name in workloads:
        doc = one(name, seed=seed, seconds=seconds, size=size)
        result["workloads"][name] = doc
        for metric, entry in doc["metrics"].items():
            print(f"{name:<16}{metric:<40}{entry['value']:>16.6g}  {entry['unit']}")
        frac = doc["failed"] / max(1, doc["attempted"])
        print(f"{name:<16}{'failed_frac':<40}{frac:>16.6g}  fraction")
        for failure in doc["failures"]:
            print(f"  FAILED {failure}", file=sys.stderr)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 1 if any(d["failed"] for d in result["workloads"].values()) else 0
