"""The traced run: per-layer metrics of one workload.

Three sources, all outside the program (see bench/README.md):

1. the **waterfall** -- the workload's own unit of work run once more
   under the span wrappers of ``bench.tracing``; a layer's
   ``<layer>.self_frac`` is its share of the attributed busy time;
2. **counters and records** the program already returns
   (``ParallelRunResult``, ``Scheduler`` counters, ``SweepResult``);
3. **probes** -- timed calls into one layer's public functions, on the
   workload's own inputs, with the wrappers removed again.

A metric whose layer is not on the workload's path stays 0.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Hashable

import numpy as np

from repro import api
from repro.ckpt import CheckpointStore
from repro.cluster import ClusterSpec, fixed_slow_traces
from repro.cluster.simulator import simulate
from repro.core.partition import SlicePartition
from repro.core.policies import make_policy
from repro.lbm.ensemble import EnsembleSpec, MemberParams, run_ensemble
from repro.lbm.solver import LBMConfig, MulticomponentLBM
from repro.parallel import Communicator, ParallelLBM, launch_spmd
from repro.parallel.driver import assemble_global_f
from repro.serve import Scheduler, serve_many
from repro.sweep import run_sweep

from bench import inputs
from bench.metrics import PER_LAYER
from bench.tracing import Tracer, install, layer_self_times
from bench.workloads import (
    ChannelNonded,
    ChannelPar,
    ChannelSeq,
    ServeOpen,
    SweepSmall,
    Workload,
    percentile,
)

LAYERS = ("lbm", "parallel", "core", "ckpt", "api", "serve", "sweep", "scenarios", "bench")


def timed(fn: Callable[[], Any]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def median_time(fn: Callable[[], Any], repeats: int) -> float:
    return statistics.median(timed(fn) for _ in range(repeats))


def trace_workload(workload: Workload, tmp: Path) -> dict[str, Any]:
    """Run *workload*'s unit untraced and traced in alternation, then
    its probes."""
    values: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    parallel = isinstance(workload, ChannelPar)
    base_walls: list[float] = []
    traced_walls: list[float] = []
    base_report = None
    tracer = Tracer()
    for _ in range(workload.trace_pairs):
        base_walls.append(workload.repeat())
        base_report = getattr(workload, "report", None)
        # Only the last traced repeat's spans are kept.
        tracer = Tracer()
        patches = install(tracer, kernel_spans=parallel)
        try:
            with tracer.span(f"bench.{workload.name}"):
                if parallel:
                    wall = traced_parallel_unit(workload, tracer, values)
                else:
                    wall = workload.repeat()
        finally:
            patches.remove()
        traced_walls.append(wall)

    busy = layer_self_times(tracer.spans)
    total = sum(busy.values())
    for layer in LAYERS:
        values[f"{layer}.self_frac"] = busy.get(layer, 0.0) / total
    values["bench.spans"] = float(len(tracer.spans))
    span_cost = span_cost_s()
    values["bench.span_cost_us"] = 1e6 * span_cost
    # Every span charged its calibrated cost against the program's busy
    # time: exact where a wall-clock comparison drowns in the box's noise.
    program_busy = total - busy.get("bench", 0.0)
    values["bench.span_overhead_frac"] = len(tracer.spans) * span_cost / program_busy
    base = min(base_walls)
    if not isinstance(workload, ServeOpen):
        # The same thing measured (an open loop's wall is set by its
        # arrival schedule, so it has none).  Interference only ever adds
        # time: the fastest of each side is the fair pair.
        values["bench.traced_wall_ratio"] = min(traced_walls) / base

    probe_lbm(workload, values)
    probe_api(workload, values)
    if parallel:
        probe_parallel(workload, base, tmp, values)
    if isinstance(workload, ChannelNonded):
        probe_core_cluster(values)
        probe_ckpt(workload, tmp, values)
    if isinstance(workload, ServeOpen):
        probe_serve(workload, base_report, values)
    if isinstance(workload, SweepSmall):
        probe_sweep(workload, tracer, values)

    checks = workload.verify()
    trace_file = tmp.parent / f"trace-{workload.name}.jsonl"
    tracer.write_jsonl(str(trace_file), workload.name)
    return {
        "sizes": workload.sizes(),
        "attempted": 2 * workload.trace_pairs * workload.ops_per_repeat + checks,
        "failed": workload.failed,
        "failures": workload.failures,
        "invalid": [],
        "base_wall_s": base_walls,
        "traced_wall_s": traced_walls,
        "layer_busy_s": busy,
        "trace_file": trace_file.name,
        "layer_metrics": values,
        "physics": workload.physics,
    }


def span_cost_s(calls: int = 20_000) -> float:
    """What one span costs: a no-op wrapped like the program's functions,
    timed against the bare no-op."""

    def noop() -> None:
        return None

    traced_noop = Tracer().wrap(noop, "bench.noop")

    def loop(fn: Callable[[], None]) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    traced = min(loop(traced_noop) for _ in range(3))
    bare = min(loop(noop) for _ in range(3))
    return max(0.0, traced - bare) / calls


# ----------------------------------------------------------------- parallel
class CountingComm(Communicator):
    """Delegating communicator that counts halo messages and their
    payload bytes (exact counts; the driver's protocol is untouched)."""

    def __init__(self, inner: Communicator):
        self._inner = inner
        self.halo_msgs = 0
        self.halo_bytes = 0

    @property
    def rank(self) -> int:
        return self._inner.rank

    @property
    def size(self) -> int:
        return self._inner.size

    def isend(self, dest: int, tag: Hashable, payload: Any):
        if isinstance(tag, tuple) and str(tag[0]).startswith("halo"):
            self.halo_msgs += 1
            self.halo_bytes += payload_bytes(payload)
        return self._inner.isend(dest, tag, payload)

    def irecv(self, source: int, tag: Hashable):
        return self._inner.irecv(source, tag)

    def barrier(self) -> None:
        self._inner.barrier()

    def allgather(self, payload: Any, tag: Hashable) -> list[Any]:
        return self._inner.allgather(payload, tag)


def payload_bytes(payload: Any) -> int:
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (tuple, list)):
        return sum(payload_bytes(p) for p in payload)
    if isinstance(payload, dict):
        return sum(payload_bytes(p) for p in payload.values())
    return 0


def traced_parallel_unit(
    workload: ChannelPar, tracer: Tracer, values: dict[str, float]
) -> float:
    """The workload's parallel run through a bench-owned ``rank_main``:
    the same ``ParallelLBM.run`` that ``api.run`` drives, but each rank
    hands its spans and message counts back (forked ranks cannot append
    to the parent's span list)."""
    spec = workload.spec
    config = workload.config
    store = None
    ckpt_dir = workload.tmp_root / "ckpt-traced"
    if spec.checkpoint_every:
        store = CheckpointStore(ckpt_dir)
    parent_pid = os.getpid()
    plane_bytes = (
        config.n_components * config.lattice.Q * int(np.prod(config.geometry.shape[1:])) * 8
    )

    def rank_main(comm: Communicator):
        # ``world`` is the launch span opened below, before any rank runs.
        first_own = len(tracer.spans)
        counting = CountingComm(comm)
        with tracer.span("parallel.rank", parent=world):
            driver = ParallelLBM(
                counting,
                config,
                policy=spec.policy,
                remap_config=spec.remap_config,
                load_time_fn=spec.load_time_fn,
                checkpoint_every=spec.checkpoint_every,
                checkpoint_store=store,
                halo_overlap=spec.halo_overlap,
            )
            result = driver.run(spec.phases)
        forked = os.getpid() != parent_pid
        spans = tracer.spans[first_own:] if forked else []
        return result, spans, counting.halo_msgs, counting.halo_bytes

    start = time.perf_counter()
    try:
        with tracer.span("parallel.launch") as world:
            raw = launch_spmd(
                spec.ranks,
                rank_main,
                transport=spec.transport,
                timeout=spec.timeout,
                slot_bytes=plane_bytes,
            )
        results = [r[0] for r in raw]
        with tracer.span("parallel.assemble"):
            f_global = assemble_global_f(results)
        wall = time.perf_counter() - start
        if store is not None:
            committed = [g for g in store.generations() if g.committed]
            values["ckpt.generations_written"] = float(len(committed))
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)
    for _, spans, _, _ in raw:
        tracer.spans.extend(spans)
    workload.check(
        np.array_equal(f_global, workload.result.f),
        "traced parallel run differs from the untraced api.run",
    )

    phases = spec.phases
    values["parallel.halo_msgs_per_phase"] = sum(r[2] for r in raw) / phases
    values["parallel.halo_bytes_per_phase"] = sum(r[3] for r in raw) / phases
    values["parallel.planes_migrated"] = float(sum(r.planes_sent for r in results))
    counts = [r.plane_count for r in results]
    values["parallel.final_planes_max_over_mean"] = max(counts) / statistics.mean(counts)
    values["parallel.exposed_wait_s"] = max(r.exposed_wait_s for r in results)
    values["parallel.exposed_wait_frac"] = values["parallel.exposed_wait_s"] / wall
    values["parallel.assemble_s"] = sum(tracer.durations("parallel.assemble"))

    # Per-rank span groups: a step_phase span's parent is its rank's
    # driver_run span; kernel spans sit below step_phase or driver_init.
    by_id = {s[0]: s for s in tracer.spans}

    def rank_of(span) -> str | None:
        while span is not None and span[1] != "parallel.rank":
            span = by_id.get(span[4])
        return span[0] if span is not None else None

    steps: dict[str, list[float]] = {}
    remap: dict[str, float] = {}
    kernels: dict[str, float] = {}
    for span in tracer.spans:
        name, duration = span[1], span[3] - span[2]
        if name == "parallel.step_phase":
            steps.setdefault(rank_of(span), []).append(duration)
        elif name == "parallel.maybe_remap":
            rank = rank_of(span)
            remap[rank] = remap.get(rank, 0.0) + duration
        elif name.startswith("lbm.kernel."):
            rank = rank_of(span)
            kernels[rank] = kernels.get(rank, 0.0) + duration
    per_phase = [max(rank_steps) for rank_steps in zip(*steps.values())]
    values["parallel.step_phase_s"] = statistics.median(per_phase)
    values["parallel.maybe_remap_s"] = max(remap.values())
    values["parallel.compute_s"] = max(kernels.values())
    return wall


def probe_parallel(
    workload: ChannelPar, base_wall: float, tmp: Path, values: dict[str, float]
) -> None:
    spec = workload.spec
    idle = dataclasses.replace(spec, phases=0, checkpoint_every=0)
    values["parallel.launch_s"] = median_time(lambda: api.run(idle), 3)
    if isinstance(workload, ChannelNonded):
        return
    updates = workload.updates_per_repeat
    seq_wall = min(timed(workload.reference) for _ in range(2))  # fastest, like base_wall
    values["parallel.seq_mlups"] = updates / seq_wall / 1e6
    values["parallel.scaling_eff"] = (updates / base_wall / 1e6) / (
        spec.ranks * values["parallel.seq_mlups"]
    )
    # What a default environment pays: the same unit in a child whose
    # BLAS thread variables are left unset.
    from bench.harness import run_child

    unpinned = run_child(
        workload.name, "unpinned", seed=workload.seed, seconds=1.0,
        size=workload.size_name, pinned=False,
    )  # fmt: skip
    if "error" in unpinned:
        workload.fail(1, f"unpinned-BLAS probe: {unpinned['error']}")
    else:
        values["parallel.blas_pinned_s"] = base_wall
        values["parallel.blas_oversub_ratio"] = unpinned["wall_s"] / base_wall
    trace_path = tmp / "obs-trace.jsonl"
    observed = dataclasses.replace(spec, trace_path=str(trace_path))
    obs_wall = min(timed(lambda: api.run(observed)) for _ in range(2))
    values["obs.trace_overhead_frac"] = obs_wall / base_wall - 1.0


# -------------------------------------------------------------------- lbm
def unit_config(workload: Workload) -> LBMConfig:
    """The lattice the workload's executions run on."""
    if isinstance(workload, ChannelSeq):
        return workload.config
    if isinstance(workload, ServeOpen):
        return workload.stream.specs[0].config
    return workload.specs["homogeneous"].base_config


def probe_lbm(workload: Workload, values: dict[str, float]) -> None:
    config = unit_config(workload)
    points = int(np.prod(config.geometry.shape))
    big = points > 10_000
    values["lbm.solver_init_ms"] = 1e3 * median_time(lambda: MulticomponentLBM(config), 3)
    solver = MulticomponentLBM(config)
    per_point = 1e6 / points
    values["lbm.step_us_per_pt"] = per_point * median_time(solver.step, 20 if big else 200)
    parts = {"collide": [], "stream_bounce": [], "moments_forces": []}
    for _ in range(8 if big else 100):
        parts["collide"].append(timed(solver.collide))
        parts["stream_bounce"].append(timed(solver.stream_and_bounce))
        parts["moments_forces"].append(timed(solver.update_moments_and_forces))
    for part, samples in parts.items():
        values[f"lbm.{part}_us_per_pt"] = per_point * statistics.median(samples)
    # Computed, not measured: five passes over the populations (collide
    # and stream each read and write f, moments read it) plus one write
    # and one read of every macroscopic field.  Cache misses are ignored.
    macroscopic = solver.rho.nbytes + solver.mom.nbytes + solver.force.nbytes + solver.u_eq.nbytes
    values["lbm.bytes_per_update_computed"] = (5 * solver.f.nbytes + 2 * macroscopic) / points
    values["lbm.state_mb"] = (solver.f.nbytes + macroscopic) / 2**20

    group = batch_group(workload)
    if group:
        base = group[0].config
        members = tuple(
            MemberParams(
                wall_amplitude=s.config.wall_force.amplitude if s.config.wall_force else None,
                scenario=s.config.scenario,
            )
            for s in group
        )
        phases = group[0].phases
        wall = median_time(lambda: run_ensemble(EnsembleSpec(base=base, members=members), phases), 3)
        values["lbm.ensemble_us_per_pt"] = 1e6 * wall / (len(group) * points * phases)


def batch_group(workload: Workload) -> list[api.RunSpec]:
    """The batch the workload's executions typically ride in: 8 unique
    stream specs (the coalescing width) or one sweep's 6 samples."""
    if isinstance(workload, ServeOpen):
        return inputs.burst_specs(workload.seed, workload.COALESCE, workload.shape, workload.phases)
    if isinstance(workload, SweepSmall):
        return inputs.sweep_run_specs(workload.specs["homogeneous"])
    return []


# -------------------------------------------------------------------- api
def probe_api(workload: Workload, values: dict[str, float]) -> None:
    if isinstance(workload, ChannelSeq):
        spec = api.RunSpec(config=workload.config, phases=workload.phases)
    else:
        spec = batch_group(workload)[0]
    values["api.fingerprint_us"] = 1e6 * median_time(lambda: api.spec_fingerprint(spec), 200)
    values["api.run_fixed_ms"] = 1e3 * median_time(lambda: api.run(inputs.with_phases(spec, 0)), 5)
    if isinstance(workload, SweepSmall):
        group = workload.specs["homogeneous"].run_specs()  # 18 submissions
    else:
        group = batch_group(workload)
    if group:
        idle = [inputs.with_phases(s, 0) for s in group]
        values["api.run_batch_group_ms"] = 1e3 * median_time(lambda: api.run_batch(idle), 5)


# ----------------------------------------------------------- core / cluster
def probe_core_cluster(values: dict[str, float]) -> None:
    nodes = 32
    partition = SlicePartition.even(25 * nodes, nodes, plane_points=500)
    times = np.ones(nodes)
    times[5] = 1.0 / 0.3
    policy = make_policy("filtered")
    values["core.decide_us.filtered_n32"] = 1e6 * median_time(
        lambda: policy.decide(partition, times), 50
    )
    phases = 600
    cluster = ClusterSpec(n_nodes=20, traces=fixed_slow_traces(20, [5]))
    wall = timed(lambda: simulate(cluster, make_policy("filtered"), phases))
    values["cluster.sim_phases_per_s"] = phases / wall


# ------------------------------------------------------------------- ckpt
def probe_ckpt(workload: ChannelNonded, tmp: Path, values: dict[str, float]) -> None:
    root = tmp / "ckpt-probe"
    solver = workload.result.solver()
    store = CheckpointStore(root)
    try:
        values["ckpt.save_s"] = timed(lambda: store.save_solver(solver))
        on_disk = sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
        values["ckpt.save_mb"] = on_disk / 2**20
        values["ckpt.restore_s"] = timed(lambda: store.restore_solver(solver))
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ------------------------------------------------------------------ serve
def scheduler_startup_s(workers: int, coalesce: int | None) -> float:
    async def empty() -> None:
        async with Scheduler(workers=workers, coalesce=coalesce):
            pass

    return median_time(lambda: asyncio.run(empty()), 5)


def probe_serve(workload: ServeOpen, report: dict[str, Any], values: dict[str, float]) -> None:
    """Latency split and open-loop validity from the *untraced* stream,
    then start-up cost and burst capacity."""
    latency = report["latency_s"]
    hits = [lat for lat, dup in zip(latency, report["deduped"]) if dup]
    misses = [lat for lat, dup in zip(latency, report["deduped"]) if not dup]
    values["serve.latency_p95_s"] = percentile(latency, 95)
    values["serve.latency_miss_p50_s"] = statistics.median(misses)
    values["serve.latency_hit_p50_s"] = statistics.median(hits) if hits else 0.0
    values["serve.gen_lag_p95_s"] = percentile(report["gen_lag_s"], 95)
    values["serve.backlog_s"] = report["backlog_s"]
    values["serve.submit_us"] = 1e6 * statistics.median(report["submit_s"])
    values["serve.hit_rate"] = report["hit_rate"]
    values["serve.dedup_ratio"] = report["dedup_ratio"]
    values["serve.executions"] = float(report["executions"])
    values["serve.startup_ms"] = 1e3 * scheduler_startup_s(workload.WORKERS, workload.COALESCE)
    burst = inputs.burst_specs(workload.seed + 1, 64, workload.shape, workload.phases)
    wall = timed(
        lambda: serve_many(burst, workers=workload.WORKERS, coalesce=workload.COALESCE)
    )
    values["serve.burst_jobs_per_s"] = len(burst) / wall
    values["serve.service_ms_per_exec"] = 1e3 * wall / len(burst)


# ------------------------------------------------------------------ sweep
def probe_sweep(workload: SweepSmall, tracer: Tracer, values: dict[str, float]) -> None:
    values["serve.startup_ms"] = 1e3 * scheduler_startup_s(workload.WORKERS, None)
    values["serve.submit_us"] = 1e6 * statistics.median(tracer.durations("serve.submit"))
    calls, elapsed, postproc, batch = [], [], [], []
    submissions = executions = 0
    for _ in range(3):
        for spec in workload.specs.values():
            start = time.perf_counter()
            result = run_sweep(spec, via="serve", workers=workload.WORKERS)
            call = time.perf_counter() - start
            calls.append(call)
            elapsed.append(result.elapsed_s)
            postproc.append(1e3 * (call - result.elapsed_s) / spec.n_samples)
            submissions += result.submissions
            executions += result.executions
            distinct = inputs.sweep_run_specs(spec)
            batch.append(timed(lambda: api.run_batch(distinct)))
    values["sweep.call_s"] = statistics.median(calls)
    values["sweep.elapsed_s"] = statistics.median(elapsed)
    values["sweep.postproc_ms_per_sample"] = statistics.median(postproc)
    values["sweep.batch_s"] = statistics.median(batch)
    values["sweep.fixed_overhead_s"] = values["sweep.elapsed_s"] - values["sweep.batch_s"]
    values["sweep.batch_vs_serve_ratio"] = values["sweep.elapsed_s"] / values["sweep.batch_s"]
    values["sweep.dedup_ratio"] = 1.0 - executions / submissions
    values["sweep.executions"] = executions / 3.0
    for name, spec in workload.specs.items():
        values[f"scenarios.solver_init_ms.{name}"] = 1e3 * median_time(
            lambda: MulticomponentLBM(spec.base_config), 5
        )
