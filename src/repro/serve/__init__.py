"""repro.serve — simulation-as-a-service over the ``repro.api`` facade.

A persistent :class:`Scheduler` accepts :class:`~repro.api.RunSpec`
submissions (``submit`` → job id, ``status`` / ``result`` / ``cancel``),
executes them on a bounded worker pool through
:func:`repro.api.run` / :func:`repro.api.run_batch` (coalescing
batch-compatible queued specs into stacked ensembles), deduplicates
identical physics through a content-addressed :class:`ResultCache`
keyed on :func:`repro.api.spec_fingerprint`, streams job lifecycle
events through :mod:`repro.obs`, and survives worker death by resuming
from the last :mod:`repro.ckpt` generation within a bounded retry
budget.

Quickstart::

    from repro.api import RunSpec
    from repro.serve import Scheduler

    async with Scheduler(workers=2) as sched:
        job = await sched.submit(RunSpec(config=cfg, phases=500))
        print(sched.status(job).state)
        result = await sched.result(job)

Knob defaults come from the ``REPRO_SERVE_*`` environment family
(:mod:`repro.config`); the serve tier's latency and dedup counts are
measured by the end-to-end benchmark's ``serve_open`` workload
(bench/README.md).
"""

from repro.serve.cache import ResultCache
from repro.serve.scheduler import (
    JobCancelled,
    JobFailed,
    JobState,
    JobStatus,
    Scheduler,
    serve_many,
)

__all__ = [
    "JobCancelled",
    "JobFailed",
    "JobState",
    "JobStatus",
    "ResultCache",
    "Scheduler",
    "serve_many",
]
