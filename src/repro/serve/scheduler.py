"""The asyncio job scheduler behind ``repro.serve``.

Clients ``submit()`` :class:`~repro.api.RunSpec` descriptions and get
back job ids; a bounded pool of workers executes the queue through the
same :func:`repro.api.run` / :func:`repro.api.run_batch` facade a direct
caller would use, so a served result is bit-identical to a local one.
Three mechanisms turn a duplicate-heavy client load into far fewer
solver executions:

- **completed dedup** — a submission whose fingerprint
  (:func:`repro.api.spec_fingerprint`) is already in the
  content-addressed :class:`~repro.serve.cache.ResultCache` completes
  immediately with the cached result;
- **in-flight dedup** — a submission matching a queued or running job
  joins it as a *follower*: one execution, many futures resolved;
- **coalescing** — a worker taking a queued job scans the rest of the
  queue for batch-compatible specs (:func:`repro.api.batch_compatible`:
  same phase cap and stop rule, swept knobs only) and executes up to
  ``coalesce`` of them as one stacked ensemble via
  :func:`repro.api.run_batch`.

Failure handling: a worker whose execution dies (an
:class:`~repro.ckpt.InjectedFault`, a crashed rank, any exception)
retries the job up to ``retries`` times, resuming from the last good
:mod:`repro.ckpt` generation when the spec (or the environment) carries
a checkpoint store — the fault plan is dropped on the retry, modelling a
transient worker death.  Only when the budget is exhausted does the
client see a :class:`JobFailed`.  A diverged run
(:class:`~repro.lbm.loop.NumericalInstability`) is not retried.  A
coalesced batch's outcomes are :func:`~repro.api.run_batch`'s, one per
entry: a diverged member fails its own jobs and its neighbours complete;
an exception out of ``run_batch`` itself fails every entry, as it fails
a lone job (coalescible specs carry no checkpoint store, so none would
be retried).  A failure is never cached: re-submitting it executes it
again.

Cancellation: cancelling a follower never touches its siblings; the
primary execution proceeds while any member job still wants the result.
Cancelling the *last* queued member drops the entry from the queue;
a running execution is never interrupted (its result is still cached).

Determinism: job ids are sequence numbers, cache keys are content
hashes, and the only clock used is ``time.perf_counter`` for latency
metrics — nothing in the scheduler consults ambient entropy (REP003).
"""

from __future__ import annotations

import asyncio
import dataclasses
import enum
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import repro.config as config_mod
from repro.api import (
    RunResult,
    RunSpec,
    batch_exclusion_reason,
    batch_partners,
    run,
    run_batch,
    spec_fingerprint,
)
from repro.lbm.loop import NumericalInstability
from repro.obs.observer import NULL_OBSERVER, ObserverLike, resolve_observer
from repro.serve.blocking import run_blocking
from repro.serve.cache import ResultCache

__all__ = [
    "JobCancelled",
    "JobFailed",
    "JobState",
    "JobStatus",
    "Scheduler",
    "serve_many",
]


class JobState(str, enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class JobFailed(RuntimeError):
    """The job's execution failed after exhausting the retry budget.

    ``diverged`` tells the physics' failure (the run raised
    :class:`~repro.lbm.loop.NumericalInstability`) from the worker's."""

    def __init__(self, job_id: str, error: str, diverged: bool = False):
        super().__init__(f"{job_id} failed: {error}")
        self.job_id = job_id
        self.error = error
        self.diverged = diverged


class JobCancelled(RuntimeError):
    """The awaited job was cancelled before completing."""

    def __init__(self, job_id: str):
        super().__init__(f"{job_id} was cancelled")
        self.job_id = job_id


@dataclass(frozen=True)
class JobStatus:
    """Point-in-time snapshot of one submission."""

    job_id: str
    state: JobState
    key: str
    #: This submission reused existing work: a cached result or an
    #: in-flight sibling.
    deduped: bool
    #: Execution attempts so far for the entry backing this job (0 while
    #: queued; > 1 means the retry path fired).
    attempts: int
    error: str | None = None


@dataclass
class _Entry:
    """One unit of executable work — all jobs sharing a fingerprint."""

    key: str
    spec: RunSpec
    #: ``spec`` overlaid from the environment once, at submit.
    overlaid: RunSpec
    coalescible: bool
    jobs: list["_Job"] = field(default_factory=list)
    state: JobState = JobState.QUEUED
    attempts: int = 0
    result: RunResult | None = None
    error: str | None = None


@dataclass
class _Job:
    id: str
    key: str
    spec: RunSpec
    future: asyncio.Future
    submitted_at: float
    entry: _Entry | None = None
    deduped: bool = False
    state: JobState = JobState.QUEUED


def _retrieve_quietly(future: asyncio.Future) -> None:
    """Done callback marking failures as observed, so jobs whose clients
    never call ``result()`` do not trigger the event loop's
    "exception was never retrieved" warning."""
    if not future.cancelled():
        future.exception()


class Scheduler:
    """Bounded-worker asyncio scheduler over the ``repro.api`` facade.

    Parameters left ``None`` fall back to the ``REPRO_SERVE_*``
    environment family (:mod:`repro.config`): ``workers`` ←
    ``REPRO_SERVE_WORKERS``, ``coalesce`` ← ``REPRO_SERVE_COALESCE``,
    ``retries`` ← ``REPRO_SERVE_RETRIES`` and the default cache capacity
    ← ``REPRO_SERVE_CACHE``.

    Use as an async context manager::

        async with Scheduler(workers=2) as sched:
            job = await sched.submit(spec)
            result = await sched.result(job)
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        coalesce: int | None = None,
        retries: int | None = None,
        cache: ResultCache | None = None,
        observer: ObserverLike = NULL_OBSERVER,
    ):
        env = config_mod.from_env()
        self.workers = env.serve_workers if workers is None else workers
        self.coalesce = env.serve_coalesce if coalesce is None else coalesce
        self.retries = env.serve_retries if retries is None else retries
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.coalesce < 1:
            raise ValueError(f"coalesce must be >= 1, got {self.coalesce}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        self._obs = resolve_observer(observer, once=True)  # cache, batches
        self.cache = (
            cache
            if cache is not None
            else ResultCache(env.serve_cache, observer=self._obs)
        )
        self._jobs: dict[str, _Job] = {}
        self._inflight: dict[str, _Entry] = {}
        self._pending: deque[_Entry] = deque()
        self._tokens: asyncio.Queue[None] = asyncio.Queue()
        self._tasks: list[asyncio.Task] = []
        self._seq = 0
        self._closed = False
        #: Entries actually executed (primary work units, not
        #: submissions) — the denominator of the dedup ratio.
        self.executions = 0
        #: Submissions that joined an in-flight entry instead of
        #: queueing new work (the second dedup channel next to
        #: ``cache.hits``).
        self.dedup_joins = 0

    # ---------------------------------------------------------- lifecycle
    async def __aenter__(self) -> "Scheduler":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close(drain=all(e is None for e in exc))

    async def start(self) -> None:
        """Launch the worker pool (idempotent)."""
        if self._tasks:
            return
        self._closed = False
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self.workers)
        ]

    async def close(self, *, drain: bool = True) -> None:
        """Stop the pool; with *drain* (default) finish queued work
        first, otherwise abandon it."""
        if drain:
            await self.join()
        self._closed = True
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []

    async def join(self) -> None:
        """Wait until every submitted job reached a terminal state."""
        while True:
            futures = [
                j.future for j in self._jobs.values() if not j.future.done()
            ]
            if not futures:
                return
            await asyncio.gather(*futures, return_exceptions=True)

    # -------------------------------------------------------------- client
    async def submit(self, spec: RunSpec) -> str:
        """Register *spec* and return its job id.

        Content-addressed admission: a fingerprint already completed is
        answered from the cache; one in flight is joined as a follower;
        anything else becomes a new queue entry.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        if not isinstance(spec, RunSpec):
            raise TypeError(f"submit() takes a RunSpec, got {type(spec)!r}")
        key = spec_fingerprint(spec)
        job_id = f"job-{self._seq:06d}"
        self._seq += 1
        future = asyncio.get_running_loop().create_future()
        future.add_done_callback(_retrieve_quietly)
        job = _Job(
            id=job_id,
            key=key,
            spec=spec,
            future=future,
            submitted_at=time.perf_counter(),
        )
        self._jobs[job_id] = job
        if self._obs.enabled:
            self._obs.counter("serve.jobs.submitted").add()
            self._obs.emit("job", job=job_id, state="queued", key=key[:12])

        cached = self.cache.get(key)
        if cached is not None:
            job.deduped = True
            self._complete_job(job, cached, cache_hit=True)
            return job_id

        entry = self._inflight.get(key)
        if entry is not None:
            job.entry = entry
            job.deduped = True
            job.state = entry.state
            entry.jobs.append(job)
            self.dedup_joins += 1
            if self._obs.enabled:
                self._obs.counter("serve.dedup.joined").add()
            return job_id

        env = config_mod.from_env()
        overlaid = env.overlay(spec)
        entry = _Entry(
            key=key,
            spec=spec,
            overlaid=overlaid,
            coalescible=batch_exclusion_reason(overlaid, env) is None,
        )
        entry.jobs.append(job)
        job.entry = entry
        self._inflight[key] = entry
        self._pending.append(entry)
        self._tokens.put_nowait(None)
        if self._obs.enabled:
            self._obs.gauge("serve.queue.depth").set(len(self._pending))
        return job_id

    def status(self, job_id: str) -> JobStatus:
        job = self._job(job_id)
        entry = job.entry
        return JobStatus(
            job_id=job.id,
            state=job.state,
            key=job.key,
            deduped=job.deduped,
            attempts=entry.attempts if entry is not None else 0,
            error=entry.error if entry is not None else None,
        )

    async def result(self, job_id: str) -> RunResult:
        """Await the job's :class:`~repro.api.RunResult`.

        Raises :class:`JobFailed` when the retry budget ran out and
        :class:`JobCancelled` when the job was cancelled.
        """
        future = self._job(job_id).future
        if not future.done():
            await asyncio.wait([future])  # cancelling the waiter leaves the job be
        if future.cancelled():
            raise JobCancelled(job_id)
        failure = future.exception()
        if failure is not None:
            # A fresh exception per waiter: the stored one, raised up
            # through this frame and the client's, would reference both
            # from its traceback — a cycle through the scheduler and
            # every result it holds.
            raise JobFailed(job_id, failure.error, failure.diverged)
        return future.result()

    def cancel(self, job_id: str) -> bool:
        """Cancel one submission; returns ``False`` once terminal.

        Sibling jobs deduplicated onto the same entry are unaffected;
        the underlying execution is only dropped when this was the last
        member of a still-queued entry.
        """
        job = self._job(job_id)
        if job.state in (JobState.DONE, JobState.FAILED, JobState.CANCELLED):
            return False
        job.state = JobState.CANCELLED
        job.future.cancel()
        if self._obs.enabled:
            self._obs.counter("serve.jobs.cancelled").add()
            self._obs.emit("job", job=job_id, state="cancelled")
        entry = job.entry
        if entry is not None:
            if job in entry.jobs:
                entry.jobs.remove(job)
            if not entry.jobs and entry.state is JobState.QUEUED:
                entry.state = JobState.CANCELLED
                self._inflight.pop(entry.key, None)
                try:
                    self._pending.remove(entry)
                except ValueError:
                    pass
                if self._obs.enabled:
                    self._obs.gauge("serve.queue.depth").set(
                        len(self._pending)
                    )
        return True

    # ------------------------------------------------------------- workers
    async def _worker(self) -> None:
        while True:
            await self._tokens.get()
            batch = self._take_batch()
            if not batch:
                continue
            for entry in batch:
                entry.state = JobState.RUNNING
                for job in entry.jobs:
                    job.state = JobState.RUNNING
                if self._obs.enabled:
                    self._obs.emit(
                        "job_batch" if len(batch) > 1 else "job_exec",
                        key=entry.key[:12],
                        jobs=len(entry.jobs),
                        width=len(batch),
                    )
            # Counted on the event loop, not in the thread, so
            # concurrent workers never race the tally.
            self.executions += len(batch)
            outcomes = await asyncio.to_thread(self._execute, batch)
            for entry, outcome in zip(batch, outcomes):
                self._finish(entry, outcome)

    def _take_batch(self) -> list[_Entry]:
        """Pop the oldest queued entry plus up to ``coalesce - 1``
        batch-compatible companions (single-threaded: runs on the event
        loop only)."""
        primary: _Entry | None = None
        while self._pending:
            candidate = self._pending.popleft()
            if candidate.state is JobState.QUEUED:
                primary = candidate
                break
        if primary is None:
            return []
        batch = [primary]
        if primary.coalescible and self.coalesce > 1:
            kept: deque[_Entry] = deque()
            while self._pending and len(batch) < self.coalesce:
                candidate = self._pending.popleft()
                if (
                    candidate.state is JobState.QUEUED
                    and candidate.coalescible
                    and batch_partners(primary.overlaid, candidate.overlaid)
                ):
                    batch.append(candidate)
                else:
                    kept.append(candidate)
            while kept:
                self._pending.appendleft(kept.pop())
        if self._obs.enabled:
            self._obs.gauge("serve.queue.depth").set(len(self._pending))
            if len(batch) > 1:
                self._obs.counter("serve.coalesced").add(len(batch))
        return batch

    # ------------------------------------------------------ thread section
    def _execute(self, batch: list[_Entry]) -> list[Any]:
        """Run a batch in the worker thread; one outcome (result or
        exception) per entry, never raising itself."""
        try:
            if len(batch) > 1:
                return run_batch([entry.spec for entry in batch], observer=self._obs)
            return [self._run_one(batch[0])]
        except Exception as exc:
            # Without its traceback: that holds this frame, which
            # reaches every job of this scheduler through ``self``, and
            # the frames it unwound, which hold the batch's populations.
            # Only the message is used.
            return [exc.with_traceback(None)] * len(batch)

    def _run_one(self, entry: _Entry) -> RunResult:
        """Execute one entry with the bounded retry budget: a failed
        attempt resumes from the last good checkpoint generation (the
        fault plan is dropped — the death was the worker's, not the
        physics')."""
        spec = entry.spec
        for attempt in range(self.retries + 1):
            entry.attempts = attempt + 1
            try:
                return run(spec)
            except NumericalInstability:
                raise  # the physics' failure, not the worker's
            except Exception:
                if attempt >= self.retries or not _resumable(spec):
                    raise
                if self._obs.enabled:
                    self._obs.counter("serve.jobs.retried").add()
                spec = dataclasses.replace(spec, resume=True, faults=None)
        raise AssertionError("unreachable")  # pragma: no cover

    # --------------------------------------------------------- completion
    def _finish(self, entry: _Entry, outcome: Any) -> None:
        self._inflight.pop(entry.key, None)
        # The entry lets go of its members here: a job keeps its entry
        # (``status()`` reads attempts and error from it), but a link
        # back would tie entry, jobs, futures and the result's arrays
        # into a cycle that only the garbage collector can free — and
        # the collector does not see how large a NumPy buffer is.
        jobs, entry.jobs = entry.jobs, []
        if isinstance(outcome, BaseException):
            entry.state = JobState.FAILED
            entry.error = f"{type(outcome).__name__}: {outcome}"
            diverged = isinstance(outcome, NumericalInstability)
            for job in jobs:
                if job.future.done():
                    continue
                job.state = JobState.FAILED
                job.future.set_exception(JobFailed(job.id, entry.error, diverged))
                if self._obs.enabled:
                    self._obs.counter("serve.jobs.failed").add()
                    self._obs.emit(
                        "job", job=job.id, state="failed", error=entry.error
                    )
            return
        entry.state = JobState.DONE
        entry.result = outcome
        self.cache.put(entry.key, outcome)
        for job in jobs:
            self._complete_job(job, outcome, cache_hit=False)

    def _complete_job(
        self, job: _Job, result: RunResult, *, cache_hit: bool
    ) -> None:
        if job.future.done():
            return
        job.state = JobState.DONE
        job.future.set_result(result)
        if self._obs.enabled:
            self._obs.counter("serve.jobs.completed").add()
            self._obs.histogram("serve.job.latency").observe(
                time.perf_counter() - job.submitted_at
            )
            self._obs.emit(
                "job", job=job.id, state="done", cache=cache_hit
            )

    # ------------------------------------------------------------ plumbing
    def _job(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return job

    @property
    def submissions(self) -> int:
        """Total jobs submitted so far."""
        return self._seq

    def dedup_ratio(self) -> float:
        """Fraction of submissions that did not trigger an execution."""
        submitted = self._seq
        if not submitted:
            return 0.0
        return 1.0 - min(self.executions, submitted) / submitted

    def hit_rate(self) -> float:
        """Fraction of submissions served without new work: completed
        cache hits plus in-flight dedup joins, over all submissions."""
        submitted = self._seq
        if not submitted:
            return 0.0
        return (self.cache.hits + self.dedup_joins) / submitted


def _resumable(spec: RunSpec) -> bool:
    """Whether a retry can resume: the spec (or the environment) carries
    a checkpoint store to restart from."""
    return (
        spec.checkpoint_store is not None
        or spec.checkpoint_dir is not None
        or config_mod.from_env().ckpt_dir is not None
    )


def serve_many(
    specs: list[RunSpec] | tuple[RunSpec, ...],
    *,
    workers: int | None = None,
    coalesce: int | None = None,
    retries: int | None = None,
    observer: ObserverLike = NULL_OBSERVER,
) -> list[RunResult]:
    """Synchronous convenience: run *specs* through a scheduler and
    return their results in input order (the blocking counterpart of
    the async client API, used by the benchmark), on a kept event loop
    (:func:`~repro.serve.blocking.run_blocking`)."""
    results: list[RunResult] = []

    async def _main() -> None:
        async with Scheduler(
            workers=workers,
            coalesce=coalesce,
            retries=retries,
            observer=observer,
        ) as sched:
            ids = [await sched.submit(spec) for spec in specs]
            results.extend([await sched.result(job_id) for job_id in ids])

    run_blocking(_main())
    return results
