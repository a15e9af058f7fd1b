"""Deterministic resume: the checkpoint/restart contract.

The property at the heart of :mod:`repro.ckpt`: for any split point k,
``run(k); save; restore; run(n-k)`` is bit-identical to an uninterrupted
``run(n)`` — on every kernel backend.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunSpec, run
from repro.ckpt import CheckpointRejected, CheckpointStore
from repro.ckpt.policy import fingerprint_key
from repro.config import (
    ENV_CKPT_DIR as ENV_DIR,
    ENV_CKPT_EVERY as ENV_EVERY,
    ENV_CKPT_KEEP as ENV_KEEP,
    ENV_CKPT_RESUME as ENV_RESUME,
)
from repro.lbm.components import ComponentSpec
from repro.lbm.forces import WallForceSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig, MulticomponentLBM


def _config(backend=None) -> LBMConfig:
    return LBMConfig(
        geometry=ChannelGeometry(shape=(10, 12), wall_axes=(1,)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        wall_force=WallForceSpec(amplitude=0.05, decay_length=2.0),
        body_acceleration=(1e-6, 0.0),
        backend=backend,
    )


@st.composite
def _splits(draw):
    n = draw(st.integers(min_value=4, max_value=12))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    return n, k


class TestResumeProperty:
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    @settings(max_examples=10, deadline=None)
    @given(split=_splits())
    def test_split_save_restore_equals_uninterrupted(
        self, backend, split, tmp_path_factory
    ):
        n, k = split
        cfg = _config(backend)

        uninterrupted = MulticomponentLBM(cfg)
        uninterrupted.run(n)

        first = MulticomponentLBM(cfg)
        first.run(k)
        store = CheckpointStore(
            tmp_path_factory.mktemp("store"), keep_last=0
        )
        store.save_solver(first)

        second = MulticomponentLBM(cfg)
        manifest = store.restore_solver(second)
        assert manifest.step == k
        second.run(n - k)

        assert second.step_count == n
        assert np.array_equal(second.f, uninterrupted.f), (
            f"backend={backend}: resume at k={k} of n={n} diverged"
        )

    def test_cross_backend_restore_is_accepted(self, tmp_path):
        """The fingerprint deliberately excludes the kernel backend —
        a reference-written checkpoint restores into a fused solver."""
        ref = MulticomponentLBM(_config("reference"))
        ref.run(5)
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_solver(ref)

        fused = MulticomponentLBM(_config("fused"))
        manifest = store.restore_solver(fused)
        assert manifest.step == 5
        assert np.array_equal(fused.f, ref.f)


class TestRunLoopCheckpointing:
    def test_periodic_checkpoints_and_bit_exact_final_state(
        self, tmp_path
    ):
        cfg = _config()
        store = CheckpointStore(tmp_path / "ckpt", keep_last=0)
        solver = MulticomponentLBM(cfg)
        solver.run(20, checkpoint_every=5, checkpoint_store=store)
        assert [i.step for i in store.generations()] == [5, 10, 15, 20]

        plain = MulticomponentLBM(cfg)
        plain.run(20)
        assert np.array_equal(solver.f, plain.f)

    def test_interval_without_store_is_rejected(self):
        solver = MulticomponentLBM(_config())
        with pytest.raises(ValueError, match="checkpoint_store"):
            solver.run(4, checkpoint_every=2)

    def test_unhealthy_state_aborts_run_keeping_last_good(
        self, tmp_path
    ):
        cfg = _config()
        store = CheckpointStore(tmp_path / "ckpt", keep_last=0)
        solver = MulticomponentLBM(cfg)

        def poison(s):
            if s.step_count == 9:
                s.f[0, 0, 2, 2] = np.nan

        with pytest.raises(CheckpointRejected):
            solver.run(
                20,
                checkpoint_every=5,
                checkpoint_store=store,
                callback=poison,
            )
        assert store.latest_good().step == 5


class TestEnvPolicyResume:
    """The ``REPRO_CKPT_*`` policy, applied by :func:`repro.api.run`."""

    def _env(self, monkeypatch, root, *, every, resume):
        monkeypatch.setenv(ENV_DIR, str(root))
        monkeypatch.setenv(ENV_EVERY, str(every))
        monkeypatch.setenv(ENV_RESUME, "1" if resume else "0")
        monkeypatch.setenv(ENV_KEEP, "0")

    def test_env_driven_checkpoint_then_resume(
        self, tmp_path, monkeypatch
    ):
        cfg = _config()
        root = tmp_path / "ckpt"

        self._env(monkeypatch, root, every=3, resume=False)
        run(RunSpec(config=cfg, phases=6))
        # Per-config store subdirectory, keyed by fingerprint hash.
        store_dir = root / fingerprint_key(cfg)
        store = CheckpointStore(store_dir, keep_last=0)
        assert [i.step for i in store.generations()] == [3, 6]

        # A fresh process resumes from step 6 and runs only the
        # remaining 4 steps toward the 10-step TOTAL target.
        self._env(monkeypatch, root, every=3, resume=True)
        resumed = run(RunSpec(config=cfg, phases=10))
        assert resumed.steps == 10

        monkeypatch.delenv(ENV_DIR)
        plain = run(RunSpec(config=cfg, phases=10))
        assert np.array_equal(resumed.f, plain.f)

    def test_resume_past_target_runs_nothing(self, tmp_path, monkeypatch):
        cfg = _config()
        root = tmp_path / "ckpt"
        self._env(monkeypatch, root, every=0, resume=False)
        first = run(RunSpec(config=cfg, phases=8))
        CheckpointStore(
            root / fingerprint_key(cfg), keep_last=0
        ).save_solver(first.solver())

        self._env(monkeypatch, root, every=0, resume=True)
        resumed = run(RunSpec(config=cfg, phases=5))  # target surpassed at step 8
        assert resumed.steps == 8
        assert np.array_equal(resumed.f, first.f)

    def test_different_config_does_not_cross_resume(
        self, tmp_path, monkeypatch
    ):
        """Two configurations sharing one REPRO_CKPT_DIR stay isolated."""
        cfg_a = _config()
        cfg_b = dataclasses.replace(
            cfg_a, body_acceleration=(2e-6, 0.0)
        )
        assert fingerprint_key(cfg_a) != fingerprint_key(cfg_b)

        root = tmp_path / "ckpt"
        self._env(monkeypatch, root, every=0, resume=False)
        result_a = run(RunSpec(config=cfg_a, phases=6))
        CheckpointStore(
            root / fingerprint_key(cfg_a), keep_last=0
        ).save_solver(result_a.solver())

        # cfg_b finds nothing to resume: it starts from scratch.
        self._env(monkeypatch, root, every=0, resume=True)
        result_b = run(RunSpec(config=cfg_b, phases=4))
        assert result_b.steps == 4
