"""The five workloads.  Each drives the program through its public
functions only and follows one life cycle, run by ``bench.child``:

``setup()``      build inputs from the seed, create temp dirs, run the
                 discarded warm-up (together with the imports this is
                 ``setup_s``);
``repeat()``     one timed unit of work; returns its wall time
                 (``time.perf_counter`` around the public call only);
``verify()``     untimed output checks; returns how many were made and
                 records the failed ones.

``serve_open`` is the exception to ``repeat``: it is one open-loop
stream per run, so the stream length, not a repeat count, follows
``--seconds``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import glob
import shutil
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import api, sweep
from repro.ckpt import CheckpointPolicy, sha256_bytes
from repro.lbm.diagnostics import effective_slip_fraction
from repro.lbm.solver import MulticomponentLBM
from repro.serve import Scheduler, serve_many

from bench import inputs

#: Open-loop validity limits: beyond these the run measured its own
#: queue (or the generator), not the program.  The lag limit is a fifth of
#: the mean gap between arrivals; 10 ms would sit within reach of the
#: interpreter's 5 ms GIL switch interval, which two computing workers
#: alone push to a p95 of 4-9 ms here.
MAX_GEN_LAG_P95_S = 0.020
MAX_BACKLOG_S = 2.0

WARMUP_REPEATS = 2


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def component_masses(solver: MulticomponentLBM) -> list[float]:
    return [solver.total_mass(c) for c in range(solver.config.n_components)]


class Workload:
    """Shared life cycle; subclasses fill in the program calls."""

    name = ""
    #: The channel workloads take nothing from the seed.
    deterministic = False

    def __init__(self, seed: int, seconds: float, size: str, tmp_root: Path):
        self.seed = seed
        self.seconds = seconds
        self.size_name = size
        self.size = inputs.SIZES[size]
        self.tmp_root = tmp_root
        #: Operations that raised, were refused or failed a check, and why.
        self.failed = 0
        self.failures: list[str] = []
        self.operations = 0
        #: Per-operation latencies (s) of the timed repeats.
        self.latencies: list[float] = []
        self.physics: dict[str, Any] = {}

    # -- overridden -------------------------------------------------
    def build(self) -> None:
        """Inputs only (no program work)."""

    def repeat(self) -> float:
        raise NotImplementedError

    def verify(self) -> int:
        """Run the untimed checks; returns how many were made.  Failed
        ones are appended to ``self.failures``."""
        raise NotImplementedError

    def sizes(self) -> dict[str, Any]:
        raise NotImplementedError

    def validity(self) -> list[str]:
        """Why the run did not measure the program (empty = valid)."""
        return []

    #: Untraced/traced repeat pairs of the traced run.
    trace_pairs = 2
    #: Lattice-point updates and operations one repeat delivers.
    updates_per_repeat = 0
    ops_per_repeat = 1

    # -- shared -------------------------------------------------------
    def setup(self) -> None:
        self.build()
        for _ in range(WARMUP_REPEATS):
            self.warmup()

    def warmup(self) -> None:
        self.repeat()

    def measure(self) -> dict[str, list[float]]:
        """Timed repeats until ``--seconds`` have passed (never fewer
        than three)."""
        self.latencies.clear()
        self.operations = 0
        walls: list[float] = []
        deadline = time.perf_counter() + self.seconds
        while len(walls) < 3 or time.perf_counter() < deadline:
            walls.append(self.guarded_repeat())
        return {
            "wall_s": walls,
            "mlups": [self.updates_per_repeat / w / 1e6 for w in walls],
            "jobs_per_s": [self.ops_per_repeat / w for w in walls],
            "latency_s": list(self.latencies),
        }

    def guarded_repeat(self) -> float:
        """One repeat; a raising operation is a failed operation, not a
        crashed benchmark."""
        self.operations += self.ops_per_repeat
        start = time.perf_counter()
        try:
            return self.repeat()
        except Exception as exc:  # boundary: record and keep measuring
            self.fail(self.ops_per_repeat, f"repeat raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start

    def fail(self, count: int, what: str) -> None:
        self.failed += count
        self.failures.append(f"{self.name}: {what}")

    def check(self, ok: bool, what: str) -> int:
        """One verification check (counted as one attempted operation)."""
        if not ok:
            self.fail(1, what)
        return 1

    def record_physics(self, result: api.RunResult) -> None:
        self.physics = {
            "f_sha256": sha256_bytes(np.ascontiguousarray(result.f).tobytes()),
            "slip_fraction": effective_slip_fraction(result.solver()),
        }


# ---------------------------------------------------------------- channels
class ChannelSeq(Workload):
    """One sequential ``api.run`` of the D3Q19 channel per repeat."""

    name = "channel_seq"
    deterministic = True
    phases_key = "channel_phases"

    def build(self) -> None:
        self.config = inputs.channel_config(self.size["channel_shape"])
        self.phases = self.size[self.phases_key]
        self.spec = self.make_spec()
        self.points = int(np.prod(self.config.geometry.shape))
        self.updates_per_repeat = self.points * self.phases
        self.result: api.RunResult | None = None

    def make_spec(self) -> api.RunSpec:
        return api.RunSpec(config=self.config, phases=self.phases, ranks=1)

    def sizes(self) -> dict[str, Any]:
        spec = self.spec
        return {
            "shape": list(self.config.geometry.shape),
            "points": self.points,
            "phases": self.phases,
            "lattice": self.config.lattice.name,
            "backend": self.config.backend,
            "ranks": spec.ranks,
            "transport": spec.transport,
            "policy": spec.policy if spec.ranks > 1 else None,
            "warmup": f"{WARMUP_REPEATS} x {self.size['warmup_phases']} phases",
        }

    def run_once(self, spec: api.RunSpec) -> tuple[api.RunResult, float]:
        """``api.run(spec)`` and its wall time; subclasses add untimed
        hygiene around the call."""
        start = time.perf_counter()
        result = api.run(spec)
        return result, time.perf_counter() - start

    def repeat(self) -> float:
        self.result, wall = self.run_once(self.spec)
        self.latencies.append(wall)
        return wall

    def warmup(self) -> None:
        # Same arrays, few phases: the page faults, the allocator's mmap
        # threshold and the imports are what the warm-up is for.
        self.run_once(inputs.with_phases(self.spec, self.size["warmup_phases"]))

    def reference(self) -> api.RunResult:
        """The plain sequential run every channel result must equal."""
        return api.run(api.RunSpec(config=self.config, phases=self.phases, ranks=1))

    def verify(self) -> int:
        result = self.result
        if result is None:
            return self.check(False, "no result to verify")
        solver = result.solver()
        initial = component_masses(MulticomponentLBM(self.config))
        checks = 0
        for comp, m0, m1 in zip(self.config.components, initial, component_masses(solver)):
            checks += self.check(
                abs(m1 - m0) <= 1e-9 * abs(m0), f"{comp.name} mass drifted {m0!r} -> {m1!r}"
            )
        try:
            solver.check_health()
            unhealthy = ""
        except FloatingPointError as exc:
            unhealthy = str(exc)
        checks += self.check(not unhealthy, f"check_health: {unhealthy}")
        self.record_physics(result)
        return checks


class ChannelPar(ChannelSeq):
    """The same run on 2 forked ranks with overlapped halos, no remapping."""

    name = "channel_par"

    def make_spec(self) -> api.RunSpec:
        return api.RunSpec(
            config=self.config,
            phases=self.phases,
            ranks=2,
            transport="processes",
            decomp="auto",
            halo_overlap=True,
            policy="no-remap",
        )

    def build(self) -> None:
        super().build()
        self.shm_before = set(glob.glob("/dev/shm/*"))
        self.shm_leaks = 0

    def run_once(self, spec: api.RunSpec) -> tuple[api.RunResult, float]:
        result, wall = super().run_once(spec)
        # The process transport must unlink its shared-memory rings.
        self.shm_leaks += len(set(glob.glob("/dev/shm/*")) - self.shm_before)
        return result, wall

    def verify(self) -> int:
        checks = super().verify()
        if self.result is not None:
            checks += self.check(
                np.array_equal(self.result.f, self.reference().f),
                "parallel f differs from the sequential run",
            )
        checks += self.check(self.shm_leaks == 0, f"{self.shm_leaks} /dev/shm segments leaked")
        return checks


class ChannelNonded(ChannelPar):
    """4 thread ranks, one of them slowed to 30 %, filtered remapping and
    periodic checkpoints: the paper's non-dedicated case."""

    name = "channel_nonded"
    phases_key = "nonded_phases"

    def build(self) -> None:
        super().build()
        self.ckpt_dirs = 0
        self.layouts: list[tuple[list[int], list[int]]] = []
        self.generations: list[int] = []

    def make_spec(self) -> api.RunSpec:
        return api.RunSpec(
            config=self.config,
            phases=self.phases,
            ranks=4,
            transport="threads",
            policy="filtered",
            remap_config=inputs.nonded_remap_config(),
            checkpoint_every=self.size["nonded_ckpt_every"],
            load_time_fn=inputs.slow_node_load(),
        )

    def run_once(self, spec: api.RunSpec) -> tuple[api.RunResult, float]:
        """Each run checkpoints into a fresh directory, removed (untimed)
        once its generations have been verified."""
        self.ckpt_dirs += 1
        ckpt_dir = self.tmp_root / f"ckpt-{self.ckpt_dirs}"
        try:
            result, wall = super().run_once(dataclasses.replace(spec, checkpoint_dir=ckpt_dir))
            if spec.phases == self.phases:
                ranks = result.rank_results
                self.layouts.append(
                    ([r.plane_count for r in ranks], [r.planes_sent for r in ranks])
                )
                self.generations.append(self.verified_generations(ckpt_dir))
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
        return result, wall

    def verified_generations(self, ckpt_dir: Path) -> int:
        """Committed generations under *ckpt_dir*; 0 when any of them
        fails the store's own integrity check."""
        store = CheckpointPolicy(root=ckpt_dir).store_for(self.config)
        committed = [g for g in store.generations() if g.committed]
        if any(store.verify_generation(g.step) for g in committed):
            return 0
        return len(committed)

    def verify(self) -> int:
        checks = super().verify()
        checks += self.check(
            all(layout == self.layouts[0] for layout in self.layouts),
            f"plane layout differs between repeats: {self.layouts}",
        )
        checks += self.check(
            bool(self.generations) and min(self.generations) >= 1,
            "a repeat left no verifiable committed checkpoint generation",
        )
        if self.layouts:
            self.physics["plane_count"], self.physics["planes_sent"] = self.layouts[0]
        return checks


# ------------------------------------------------------------------ serve
class ServeOpen(Workload):
    """Open loop: seeded Poisson arrivals at a fixed rate into one
    ``Scheduler(workers=2, coalesce=8)``; latency counts from each job's
    due time."""

    name = "serve_open"
    WORKERS = 2
    COALESCE = 8
    VERIFY_SAMPLE = 8
    SPREAD_SLICES = 5
    trace_pairs = 1  # one stream each: a stream is --seconds / 2 long

    def build(self) -> None:
        size = self.size
        self.shape = size["serve_shape"]
        self.phases = size["serve_phases"]
        self.rate = size["serve_rate"]
        self.points = int(np.prod(self.shape))
        self.stream = inputs.serve_stream(
            self.seed, self.seconds, self.rate, self.shape, self.phases
        )
        self.warm_specs = inputs.burst_specs(self.seed, 2 * self.COALESCE, self.shape, self.phases)
        self.report: dict[str, Any] = {}
        self.results: list[Any] = []
        self.ops_per_repeat = len(self.stream.specs)

    def sizes(self) -> dict[str, Any]:
        return {
            "shape": list(self.shape),
            "points": self.points,
            "phases": self.phases,
            "lattice": "D2Q9",
            "rate_jobs_per_s": self.rate,
            "jobs": len(self.stream.specs),
            "unique_jobs": self.stream.n_unique,
            "duplicates": inputs.SERVE_DUPLICATES,
            "workers": self.WORKERS,
            "coalesce": self.COALESCE,
            "loop": "open",
        }

    def setup(self) -> None:
        self.build()
        # Warm-up: one coalesced burst (imports the batched backend and
        # the thread pool) and one plain run, both discarded.
        serve_many(self.warm_specs, workers=self.WORKERS, coalesce=self.COALESCE)
        api.run(self.warm_specs[0])

    def repeat(self) -> float:
        """The whole stream once; returns the time from its start to the
        last completion."""
        self.report = asyncio.run(self._stream())
        return self.report["makespan_s"]

    def measure(self) -> dict[str, list[float]]:
        makespan = self.repeat()
        report = self.report
        self.operations = len(self.stream.specs)
        n_failed = report["failed"]
        if n_failed:
            self.fail(n_failed, f"{n_failed} jobs failed or were refused")
        done = self.operations - n_failed
        latency = report["latency_s"]
        slices = np.array_split(np.asarray(latency), self.SPREAD_SLICES)
        return {
            "wall_s": [makespan],
            "mlups": [done * self.points * self.phases / makespan / 1e6],
            "jobs_per_s": [done / makespan],
            "latency_s": latency,
            # How well the one stream pins its median down: the p50 of
            # consecutive fifths of it (the quartiles of the job
            # latencies themselves only say the distribution is wide).
            "latency_spread_s": [float(np.median(part)) for part in slices if len(part)],
        }

    async def _stream(self) -> dict[str, Any]:
        specs, due = self.stream.specs, self.stream.due
        n = len(specs)
        done_at = [float("nan")] * n
        deduped = [False] * n
        results: list[Any] = [None] * n
        lag = [0.0] * n
        submit_s = [0.0] * n
        failed = 0

        async with Scheduler(workers=self.WORKERS, coalesce=self.COALESCE) as sched:

            async def collect(i: int, job_id: str) -> None:
                nonlocal failed
                try:
                    results[i] = await sched.result(job_id)
                except Exception:  # JobFailed / JobCancelled: a failed operation
                    failed += 1
                done_at[i] = time.perf_counter()
                deduped[i] = sched.status(job_id).deduped

            waiters = []
            t0 = time.perf_counter()
            for i, spec in enumerate(specs):
                delay = t0 + due[i] - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                before = time.perf_counter()
                lag[i] = before - (t0 + due[i])
                try:
                    job_id = await sched.submit(spec)
                except Exception:  # refused at admission
                    failed += 1
                    done_at[i] = time.perf_counter()
                    continue
                submit_s[i] = time.perf_counter() - before
                waiters.append(asyncio.create_task(collect(i, job_id)))
            await asyncio.gather(*waiters)
            counters = {
                "executions": sched.executions,
                "hit_rate": sched.hit_rate(),
                "dedup_ratio": sched.dedup_ratio(),
            }
        latency = [done_at[i] - (t0 + due[i]) for i in range(n)]
        self.results = results
        return {
            "latency_s": latency,
            "deduped": deduped,
            "gen_lag_s": lag,
            "submit_s": submit_s,
            "failed": failed,
            "makespan_s": max(done_at) - t0,
            "backlog_s": max(done_at) - (t0 + float(due[-1])),
            **counters,
        }

    def validity(self) -> list[str]:
        """Why the open loop did not measure the program (empty = valid)."""
        report = self.report
        problems = []
        lag_p95 = percentile(report["gen_lag_s"], 95)
        if lag_p95 > MAX_GEN_LAG_P95_S:
            problems.append(
                f"generator lag p95 {lag_p95 * 1e3:.1f} ms > {MAX_GEN_LAG_P95_S * 1e3:.0f} ms"
            )
        if report["backlog_s"] > MAX_BACKLOG_S:
            problems.append(
                f"backlog at end {report['backlog_s']:.2f} s > {MAX_BACKLOG_S:.0f} s (saturated)"
            )
        return problems

    def verify(self) -> int:
        rng = np.random.default_rng([self.seed, 3])
        served = [i for i, r in enumerate(self.results) if r is not None]
        picks = rng.choice(served, size=min(self.VERIFY_SAMPLE, len(served)), replace=False)
        checks = 0
        for i in picks:
            direct = api.run(self.stream.specs[i])
            checks += self.check(
                np.array_equal(self.results[i].f, direct.f),
                f"served job {i} differs from a direct api.run",
            )
        if len(picks):
            self.record_physics(self.results[int(picks[0])])
        return checks


# ------------------------------------------------------------------ sweep
class SweepSmall(Workload):
    """Closed loop: one set = ``run_sweep(via="serve")`` for each of the
    three scenario sweeps (54 submissions of ~1 300 lattice updates)."""

    name = "sweep_small"
    WORKERS = 2
    VERIFY_SAMPLE = 8

    def build(self) -> None:
        self.shape = self.size["sweep_shape"]
        self.phases = self.size["sweep_phases"]
        self.points = int(np.prod(self.shape))
        self.specs = inputs.sweep_specs(self.seed, self.shape, self.phases)
        submissions = sum(s.n_samples * s.repeats for s in self.specs.values())
        self.ops_per_repeat = submissions
        self.updates_per_repeat = submissions * self.points * self.phases
        self.last: dict[str, Any] = {}

    def sizes(self) -> dict[str, Any]:
        return {
            "shape": list(self.shape),
            "points": self.points,
            "phases": self.phases,
            "lattice": "D2Q9",
            "scenarios": list(self.specs),
            "submissions_per_set": self.ops_per_repeat,
            "workers": self.WORKERS,
            "loop": "closed",
        }

    def repeat(self, keep_results: bool = False) -> float:
        set_wall = 0.0
        for name, spec in self.specs.items():
            start = time.perf_counter()
            # Called through the module so that the traced run's wrapper applies.
            result = sweep.run_sweep(
                spec, via="serve", workers=self.WORKERS, keep_results=keep_results
            )
            wall = time.perf_counter() - start
            self.latencies.append(wall)
            set_wall += wall
            self.last[name] = result
            missing = spec.n_samples * spec.repeats - result.submissions
            if missing:
                self.fail(missing, f"{name} sweep left {missing} submissions unanswered")
        return set_wall

    def verify(self) -> int:
        self.repeat(keep_results=True)
        rng = np.random.default_rng([self.seed, 4])
        served = [
            (spec_run, result)
            for name, spec in self.specs.items()
            for spec_run, result in zip(spec.run_specs(), self.last[name].results)
        ]
        picks = rng.choice(len(served), size=min(self.VERIFY_SAMPLE, len(served)), replace=False)
        checks = 0
        for i in picks:
            spec_run, result = served[int(i)]
            checks += self.check(
                np.array_equal(result.f, api.run(spec_run).f),
                f"served sweep sample {int(i)} differs from a direct api.run",
            )
        self.record_physics(served[int(picks[0])][1])
        self.physics["executions"] = {n: r.executions for n, r in self.last.items()}
        return checks


WORKLOADS: dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (ChannelSeq, ChannelPar, ChannelNonded, ServeOpen, SweepSmall)
}
