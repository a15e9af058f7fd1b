"""Trace post-processing CLI: ``summary`` and ``compare``.

Usage::

    python -m repro.obs.report summary trace.jsonl
    python -m repro.obs.report compare new.jsonl old.jsonl --tolerance 0.10

``summary`` turns one JSONL trace into the paper-style views: a per-rank
execution profile (computation / halo / remapping — the Figure 9 shape),
a migration summary (planes and bytes moved per rank — the Table 1
bookkeeping), and a per-kernel timing table in µs per lattice point.

``compare`` extracts a flat ``{metric: value}`` dict from each trace and
flags every time-like metric whose *candidate* value exceeds the
*baseline* by more than the tolerance.  It exits nonzero when any
regression is found, so CI can gate on it.  (Performance across commits
is judged by the end-to-end benchmark, ``python -m bench``; see
bench/README.md.)
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path

from repro.obs.sink import read_trace
from repro.util.tables import format_table


# ---------------------------------------------------------------- summaries
def phase_profile(events: list[dict]) -> dict[int, dict[str, float]]:
    """Aggregate ``phase`` events into a per-rank profile: phase count,
    computation / halo seconds, halo bytes, last plane count."""
    profile: dict[int, dict[str, float]] = defaultdict(
        lambda: {
            "phases": 0,
            "computation": 0.0,
            "halo": 0.0,
            "halo_f_bytes": 0.0,
            "halo_rho_bytes": 0.0,
            "planes": 0.0,
        }
    )
    for ev in events:
        if ev.get("type") != "phase":
            continue
        row = profile[int(ev.get("rank", 0))]
        row["phases"] += 1
        row["computation"] += (
            ev.get("t_collide", 0.0)
            + ev.get("t_stream_bounce", 0.0)
            + ev.get("t_moments", 0.0)
        )
        row["halo"] += ev.get("t_halo_f", 0.0) + ev.get("t_halo_rho", 0.0)
        row["halo_f_bytes"] += ev.get("halo_f_bytes", 0)
        row["halo_rho_bytes"] += ev.get("halo_rho_bytes", 0)
        row["planes"] = ev.get("planes", row["planes"])
    return dict(profile)


def migration_summary(events: list[dict]) -> dict[int, dict[str, float]]:
    """Aggregate ``migrate`` events per rank: planes/bytes sent and
    received, number of remap rounds that moved anything."""
    summary: dict[int, dict[str, float]] = defaultdict(
        lambda: {"sent": 0, "received": 0, "bytes": 0.0, "rounds": 0}
    )
    rounds: dict[int, set] = defaultdict(set)
    for ev in events:
        if ev.get("type") != "migrate":
            continue
        rank = int(ev.get("rank", 0))
        row = summary[rank]
        planes = int(ev.get("planes", 0))
        if ev.get("action") == "send":
            row["sent"] += planes
        else:
            row["received"] += planes
        row["bytes"] += ev.get("bytes", 0)
        rounds[rank].add(ev.get("round"))
    for rank, rset in rounds.items():
        summary[rank]["rounds"] = len(rset)
    return dict(summary)


def kernel_table(events: list[dict]) -> list[tuple[str, int, float, float]]:
    """Rows ``(kernel, calls, total_s, us_per_point)`` from the final
    ``metrics`` event's kernel histograms/counters."""
    metrics: dict[str, dict] = {}
    for ev in events:
        if ev.get("type") == "metrics":
            metrics = ev.get("metrics", {})
    rows = []
    for name, snap in sorted(metrics.items()):
        if not name.startswith("kernel.") or snap.get("kind") != "histogram":
            continue
        points = metrics.get(f"{name}.points", {}).get("value", 0.0)
        total = snap.get("total", 0.0)
        us_per_point = 1e6 * total / points if points else 0.0
        rows.append((name[len("kernel."):], snap.get("count", 0), total,
                     us_per_point))
    return rows


def sim_summary(events: list[dict]) -> dict | None:
    """The cluster simulator's ``sim_end`` payload, if this is a
    simulator trace."""
    for ev in events:
        if ev.get("type") == "sim_end":
            return ev
    return None


def render_summary(events: list[dict]) -> str:
    sections: list[str] = []
    meta = next((e for e in events if e.get("type") == "run_start"), None)
    if meta is not None:
        pairs = ", ".join(
            f"{k}={meta[k]}"
            for k in ("n_ranks", "backend", "policy", "shape", "phases")
            if k in meta
        )
        sections.append(f"run: {pairs}")

    prof = phase_profile(events)
    if prof:
        rows = [
            (
                rank,
                int(p["phases"]),
                p["computation"],
                p["halo"],
                int(p["halo_f_bytes"] + p["halo_rho_bytes"]),
                int(p["planes"]),
            )
            for rank, p in sorted(prof.items())
        ]
        sections.append(
            format_table(
                ["rank", "phases", "compute (s)", "halo (s)",
                 "halo bytes", "final planes"],
                rows,
                title="-- per-rank execution profile --",
                float_fmt="{:.4f}",
            )
        )

    mig = migration_summary(events)
    if mig:
        rows = [
            (rank, int(m["rounds"]), int(m["sent"]), int(m["received"]),
             int(m["bytes"]))
            for rank, m in sorted(mig.items())
        ]
        sections.append(
            format_table(
                ["rank", "rounds", "planes sent", "planes received", "bytes"],
                rows,
                title="-- migration summary --",
            )
        )
    elif prof:
        sections.append("no migration events (run stayed balanced)")

    kernels = kernel_table(events)
    if kernels:
        sections.append(
            format_table(
                ["kernel", "calls", "total (s)", "us/point"],
                kernels,
                title="-- kernel timings --",
                float_fmt="{:.4f}",
            )
        )

    sim = sim_summary(events)
    if sim is not None:
        rows = [
            (i, c, m, r)
            for i, (c, m, r) in enumerate(
                zip(sim.get("computation", []), sim.get("communication", []),
                    sim.get("remapping", []))
            )
        ]
        sections.append(
            format_table(
                ["node", "computation (s)", "communication (s)",
                 "remapping (s)"],
                rows,
                title=(
                    f"-- simulated cluster profile "
                    f"(total {sim.get('total_time', 0.0):.1f}s, "
                    f"{sim.get('planes_moved', 0)} planes moved) --"
                ),
                float_fmt="{:.2f}",
            )
        )

    if not sections:
        sections.append("trace contains no recognized events")
    return "\n\n".join(sections)


# ------------------------------------------------------------------ compare
#: Metric-name suffixes of the time-like metrics: larger is worse.
_TIME_LIKE = ("us_per_point", "total_time", "mean")


def trace_metrics(events: list[dict]) -> dict[str, float]:
    """Flatten a trace into comparable scalar metrics."""
    out: dict[str, float] = {}
    prof = phase_profile(events)
    for rank, p in prof.items():
        if p["phases"]:
            out[f"phase.rank{rank}.compute.mean"] = (
                p["computation"] / p["phases"]
            )
            out[f"phase.rank{rank}.halo.mean"] = p["halo"] / p["phases"]
    if prof:
        total_phases = sum(p["phases"] for p in prof.values())
        out["phase.compute.mean"] = (
            sum(p["computation"] for p in prof.values()) / total_phases
        )
        out["migration.planes"] = float(
            sum(m["sent"] for m in migration_summary(events).values())
        )
    for name, calls, total, us_per_point in kernel_table(events):
        if us_per_point:
            out[f"kernel.{name}.us_per_point"] = us_per_point
    sim = sim_summary(events)
    if sim is not None:
        out["sim.total_time"] = float(sim.get("total_time", 0.0))
        out["sim.planes_moved"] = float(sim.get("planes_moved", 0))
    return out


def load_metrics(path: str | Path) -> dict[str, float]:
    """Comparable metrics of the JSONL trace at *path*."""
    return trace_metrics(read_trace(path))


def compare_metrics(
    candidate: dict[str, float],
    baseline: dict[str, float],
    tolerance: float,
) -> list[tuple[str, float, float, float]]:
    """Regressions ``(metric, candidate, baseline, change)`` among the
    time-like metrics both sides report; ``change`` is the fractional
    slowdown (+0.25 = 25% slower)."""
    regressions = []
    for name in sorted(set(candidate) & set(baseline)):
        base = baseline[name]
        if not name.endswith(_TIME_LIKE) or base <= 0:
            continue
        change = candidate[name] / base - 1.0
        if change > tolerance:
            regressions.append((name, candidate[name], base, change))
    return regressions


def run_compare(
    candidate_path: str | Path,
    baseline_path: str | Path,
    tolerance: float = 0.10,
    out=None,
) -> int:
    if out is None:
        out = sys.stdout
    candidate = load_metrics(candidate_path)
    baseline = load_metrics(baseline_path)
    shared = sorted(
        n for n in set(candidate) & set(baseline) if n.endswith(_TIME_LIKE)
    )
    if not shared:
        print("no comparable time-like metrics between the two inputs",
              file=out)
        return 2
    regressions = compare_metrics(candidate, baseline, tolerance)
    rows = [
        (name, candidate[name], baseline[name],
         # a zero baseline (e.g. no halo time on a 1-rank run) has no
         # meaningful percentage change; compare_metrics skips it too
         100.0 * (candidate[name] / baseline[name] - 1.0)
         if baseline[name] > 0 else float("nan"),
         "REGRESSION" if any(r[0] == name for r in regressions) else "ok")
        for name in shared
    ]
    print(
        format_table(
            ["metric", "candidate", "baseline", "change (%)", "verdict"],
            rows,
            title=f"-- compare (tolerance {tolerance:.0%}) --",
            float_fmt="{:.4g}",
        ),
        file=out,
    )
    if regressions:
        print(
            f"\n{len(regressions)} metric(s) regressed beyond "
            f"{tolerance:.0%}",
            file=out,
        )
        return 1
    print("\nno regressions", file=out)
    return 0


# ---------------------------------------------------------------------- CLI
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize or diff repro.obs JSONL traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser("summary", help="render one trace")
    p_summary.add_argument("trace", help="JSONL trace path")

    p_compare = sub.add_parser(
        "compare", help="diff two traces"
    )
    p_compare.add_argument("candidate", help="trace under test")
    p_compare.add_argument("baseline", help="reference trace")
    p_compare.add_argument(
        "--tolerance", type=float, default=0.10,
        help="allowed fractional slowdown before flagging (default 0.10)",
    )

    args = parser.parse_args(argv)
    if args.command == "summary":
        print(render_summary(read_trace(args.trace)))
        return 0
    return run_compare(args.candidate, args.baseline, args.tolerance)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke test
    sys.exit(main())
