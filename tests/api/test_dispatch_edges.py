"""Dispatch edges of the :func:`repro.api.run` facade that no suite
exercised: resume combined with a non-default backend, and tracing a
parallel run through ``trace_path``."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api import RunSpec, run


def read_trace(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestResumeWithBackendOverride:
    def test_resume_keeps_backend_override(
        self, two_component_config, tmp_path
    ):
        """Interrupt a run at phase 4, then resume to the full target
        with a config that names the non-default backend: the restored
        solver must finish on that backend and land bit-identical to an
        uninterrupted run on it."""
        store_dir = tmp_path / "ckpt"
        oracle = dataclasses.replace(two_component_config, backend="reference")
        assert two_component_config.backend != "reference"
        common = dict(
            config=oracle,
            checkpoint_dir=store_dir,
            checkpoint_every=2,
        )
        run(RunSpec(phases=4, **common))
        resumed = run(RunSpec(phases=8, resume=True, **common))
        assert resumed.config.backend == "reference"
        assert resumed.solver().backend.name == "reference"

        fresh = run(RunSpec(config=oracle, phases=8))
        assert np.array_equal(resumed.f, fresh.f)

    def test_cross_backend_resume_is_legal_and_physical(
        self, two_component_config, tmp_path
    ):
        """Resuming under a *different* backend than the one that wrote
        the checkpoint is legal (the store checks physics, not
        implementation) and lands on the same physics to numerical
        precision — the documented contract reserves bit-exactness for
        same-backend resumes."""
        store_dir = tmp_path / "ckpt"
        run(
            RunSpec(
                config=two_component_config,
                phases=3,
                checkpoint_dir=store_dir,
                checkpoint_every=1,
            )
        )
        resumed = run(
            RunSpec(
                config=dataclasses.replace(
                    two_component_config, backend="reference"
                ),
                phases=6,
                checkpoint_dir=store_dir,
                resume=True,
            )
        )
        uninterrupted = run(RunSpec(config=two_component_config, phases=6))
        assert not np.array_equal(resumed.f, uninterrupted.f)
        assert np.allclose(resumed.f, uninterrupted.f, rtol=1e-12, atol=1e-14)

    def test_resume_without_store_is_rejected(self, two_component_config):
        with pytest.raises(ValueError, match="resume"):
            run(RunSpec(config=two_component_config, phases=4, resume=True))


class TestTracedParallelRun:
    @pytest.mark.parametrize("transport", ["threads", "processes"])
    def test_trace_path_with_parallel_transport(
        self, two_component_config, tmp_path, transport
    ):
        trace = tmp_path / f"trace-{transport}.jsonl"
        spec = RunSpec(
            config=two_component_config,
            phases=4,
            ranks=2,
            transport=transport,
            trace_path=str(trace),
        )
        result = run(spec)

        plain = run(
            dataclasses.replace(spec, trace_path=None)
        )
        assert np.array_equal(result.f, plain.f)

        events = read_trace(trace)
        assert events, "parallel run must emit trace events"
        types = {e["type"] for e in events}
        assert "run_start" in types or "phase" in types or len(types) > 1
        # per-rank attribution must survive the transport
        ranks = {e["rank"] for e in events if "rank" in e}
        assert ranks >= {0, 1}

    def test_trace_path_sequential_still_works(
        self, two_component_config, tmp_path
    ):
        trace = tmp_path / "trace-seq.jsonl"
        result = run(
            RunSpec(
                config=two_component_config,
                phases=4,
                trace_path=str(trace),
            )
        )
        plain = run(RunSpec(config=two_component_config, phases=4))
        assert np.array_equal(result.f, plain.f)
        assert read_trace(trace)
