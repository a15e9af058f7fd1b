"""Every metric the benchmark emits, declared once.

``BENCHMARK.json`` repeats the names, units and directions (and, for the
end-to-end metrics, the regression bounds); ``bench/tests`` asserts that
the two agree exactly and that a run emits these names and no others.
The ``moves`` column is the prediction written down before measuring:
which end-to-end metric a layer metric should move, on which workload
("-" = none; recorded to prove exactly that).

A per-layer metric whose layer is not on a workload's path reads 0 on
that workload (see the table in bench/README.md).
"""

from __future__ import annotations

WORKLOADS = {
    "channel_seq": (
        "kernel-bound: one sequential api.run of the D3Q19 100x50x10 channel; "
        "repro.lbm does >95% of the work; the single-threaded baseline"
    ),
    "channel_par": (
        "same channel on 2 forked ranks, overlapped halos, no remap: only "
        "repro.parallel stands between this and 2x channel_seq"
    ),
    "channel_nonded": (
        "same channel on 4 thread ranks, one slowed to 30%: filtered remapping, "
        "plane migration and checkpoint writes; the paper's headline case"
    ),
    "serve_open": (
        "open loop: Poisson arrivals at 10 jobs/s (workers about 1/3 busy), 40% "
        "duplicates, into Scheduler(workers=2, coalesce=8); repro.serve sets latency"
    ),
    "sweep_small": (
        "closed-loop bursts: three 18-submission run_sweep(via=serve) calls of ~1300 "
        "lattice updates each; fixed set-up cost, not the kernel, sets the rate"
    ),
}

#: name -> (unit, better, bound, definition)
END_TO_END = {
    "mlups": (
        "1e6/s",
        "higher",
        0.25,
        "lattice-point updates delivered per second: points x phases x results / wall",
    ),
    "jobs_per_s": (
        "1/s",
        "higher",
        0.25,
        "operations (api.run calls, served jobs, sweep submissions) answered per second",
    ),
    "latency_p50_s": (
        "s",
        "lower",
        0.25,
        "median time from an operation being due to its result "
        "(api.run call, served job from its due time, run_sweep call)",
    ),
    "setup_s": (
        "s",
        "lower",
        0.25,
        "child start to first timed repeat: imports, input generation, warm-up",
    ),
    "peak_rss_mb": (
        "MiB",
        "lower",
        0.20,
        "max ru_maxrss of the workload child and its reaped children",
    ),
}

#: name -> (unit, better, moves)
PER_LAYER = {
    # -- waterfall of the traced workload itself (share of attributed busy time)
    "lbm.self_frac": ("fraction", "lower", "mlups on channel_*; ~0 on sweep_small"),
    "parallel.self_frac": ("fraction", "lower", "mlups on channel_par, channel_nonded"),
    "core.self_frac": ("fraction", "lower", "- (<0.1% of a phase)"),
    "ckpt.self_frac": ("fraction", "lower", "mlups on channel_nonded only"),
    "api.self_frac": ("fraction", "lower", "jobs_per_s on sweep_small; setup_s"),
    "serve.self_frac": ("fraction", "lower", "latency_p50_s on serve_open"),
    "sweep.self_frac": ("fraction", "lower", "jobs_per_s, mlups on sweep_small"),
    "scenarios.self_frac": ("fraction", "lower", "jobs_per_s on sweep_small"),
    "bench.self_frac": ("fraction", "lower", "- (harness, idle waits, unattributed)"),
    "bench.span_overhead_frac": ("fraction", "lower", "- (must stay < 3%)"),
    "bench.traced_wall_ratio": ("ratio", "lower", "- (traced / untraced wall, measured; noisy)"),
    "bench.spans": ("count", "lower", "-"),
    "bench.span_cost_us": ("us", "lower", "- (one span, calibrated on a no-op)"),
    # -- repro.lbm, probed on the workload's own lattice
    "lbm.step_us_per_pt": ("us", "lower", "mlups on channel_seq (~1/x), channel_par"),
    "lbm.collide_us_per_pt": ("us", "lower", "mlups on channel_seq"),
    "lbm.stream_bounce_us_per_pt": ("us", "lower", "mlups on channel_seq"),
    "lbm.moments_forces_us_per_pt": ("us", "lower", "mlups on channel_seq"),
    "lbm.bytes_per_update_computed": ("B", "lower", "- (computed from array shapes)"),
    "lbm.state_mb": ("MiB", "lower", "peak_rss_mb (computed)"),
    "lbm.solver_init_ms": ("ms", "lower", "setup_s; jobs_per_s on sweep_small"),
    "lbm.ensemble_us_per_pt": (
        "us",
        "lower",
        "latency_p50_s on serve_open; jobs_per_s on sweep_small",
    ),
    # -- repro.parallel
    "parallel.launch_s": ("s", "lower", "mlups on channel_par / channel_nonded"),
    "parallel.step_phase_s": ("s", "lower", "mlups on channel_par, channel_nonded"),
    "parallel.maybe_remap_s": ("s", "lower", "mlups on channel_nonded"),
    "parallel.compute_s": ("s", "lower", "mlups on channel_par"),
    "parallel.exposed_wait_s": ("s", "lower", "mlups on channel_par, channel_nonded"),
    "parallel.exposed_wait_frac": ("fraction", "lower", "mlups on channel_par"),
    "parallel.halo_msgs_per_phase": ("count", "lower", "- (exact; a change must be explained)"),
    "parallel.halo_bytes_per_phase": ("B", "lower", "- (exact; a change must be explained)"),
    "parallel.planes_migrated": ("count", "lower", "mlups on channel_nonded (exact)"),
    "parallel.final_planes_max_over_mean": ("ratio", "lower", "mlups on channel_nonded"),
    "parallel.assemble_s": ("s", "lower", "mlups on channel_par"),
    "parallel.seq_mlups": ("1e6/s", "higher", "base of parallel.scaling_eff"),
    "parallel.scaling_eff": ("ratio", "higher", "derived: mlups(par) / (2 x seq_mlups)"),
    "parallel.blas_pinned_s": ("s", "lower", "base of parallel.blas_oversub_ratio"),
    "parallel.blas_oversub_ratio": ("ratio", "lower", "- (what a default environment pays)"),
    # -- repro.core / repro.cluster
    "core.decide_us.filtered_n32": ("us", "lower", "- on every workload"),
    "cluster.sim_phases_per_s": ("1/s", "higher", "- (experiments only)"),
    # -- repro.ckpt
    "ckpt.save_s": ("s", "lower", "mlups on channel_nonded only"),
    "ckpt.save_mb": ("MiB", "lower", "mlups on channel_nonded only"),
    "ckpt.restore_s": ("s", "lower", "-"),
    "ckpt.generations_written": ("count", "lower", "- (exact)"),
    # -- repro.api
    "api.fingerprint_us": ("us", "lower", "latency_p50_s on serve_open; jobs_per_s on sweep_small"),
    "api.run_fixed_ms": ("ms", "lower", "jobs_per_s on sweep_small; setup_s"),
    "api.run_batch_group_ms": ("ms", "lower", "jobs_per_s on sweep_small"),
    # -- repro.serve
    "serve.startup_ms": ("ms", "lower", "jobs_per_s on sweep_small"),
    "serve.submit_us": ("us", "lower", "latency_p50_s on serve_open"),
    "serve.latency_p95_s": ("s", "lower", "diagnostic for latency_p50_s"),
    "serve.latency_miss_p50_s": ("s", "lower", "diagnostic for latency_p50_s"),
    "serve.latency_hit_p50_s": ("s", "lower", "diagnostic for latency_p50_s"),
    "serve.gen_lag_p95_s": ("s", "lower", "validity of the open loop (< 20 ms)"),
    "serve.backlog_s": ("s", "lower", "validity of the open loop (< 2 s)"),
    "serve.hit_rate": ("fraction", "higher", "latency_p50_s on serve_open"),
    "serve.dedup_ratio": ("fraction", "higher", "latency_p50_s on serve_open"),
    "serve.executions": ("count", "lower", "latency_p50_s on serve_open (exact for a seed)"),
    "serve.burst_jobs_per_s": ("1/s", "higher", "capacity behind latency_p50_s"),
    "serve.service_ms_per_exec": ("ms", "lower", "capacity behind latency_p50_s"),
    # -- repro.sweep / repro.scenarios
    "sweep.call_s": ("s", "lower", "jobs_per_s, mlups on sweep_small"),
    "sweep.elapsed_s": ("s", "lower", "jobs_per_s on sweep_small"),
    "sweep.postproc_ms_per_sample": ("ms", "lower", "jobs_per_s on sweep_small"),
    "sweep.batch_s": ("s", "lower", "base of sweep.fixed_overhead_s and the ratio"),
    "sweep.fixed_overhead_s": ("s", "lower", "jobs_per_s on sweep_small: the 50-120x gap"),
    "sweep.batch_vs_serve_ratio": ("ratio", "lower", "diagnostic"),
    "sweep.dedup_ratio": ("fraction", "higher", "diagnostic (exact for a seed)"),
    "sweep.executions": ("count", "lower", "diagnostic (exact for a seed)"),
    "scenarios.solver_init_ms.homogeneous": ("ms", "lower", "jobs_per_s on sweep_small"),
    "scenarios.solver_init_ms.rough": ("ms", "lower", "jobs_per_s on sweep_small"),
    "scenarios.solver_init_ms.patterned": ("ms", "lower", "jobs_per_s on sweep_small"),
    # -- repro.obs
    "obs.trace_overhead_frac": ("fraction", "lower", "- (tracing's cost is a benched number)"),
}
