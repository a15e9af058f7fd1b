"""The experiments CLI."""

import pytest

from repro.experiments.runner import EXPERIMENTS, ORDER, main


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        for name in ("fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "table1"):
            assert name in EXPERIMENTS

    def test_extensions_registered(self):
        for name in ("ext-adaptation", "ext-slip-sweep", "ext-resolution"):
            assert name in EXPERIMENTS

    def test_order_covers_registry(self):
        assert set(ORDER) == set(EXPERIMENTS)


class TestCli:
    def test_single_experiment(self, capsys):
        assert main(["ext-adaptation"]) == 0
        out = capsys.readouterr().out
        assert "filtered" in out
        assert "completed in" in out

    def test_fast_flag(self, capsys):
        assert main(["fig3", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "disturbance" in out

    def test_multiple_experiments(self, capsys):
        assert main(["ext-adaptation", "fig3", "--fast"]) == 0
        out = capsys.readouterr().out
        assert out.count("completed in") == 2

    def test_fig6_and_fig7_share_one_pair(self, capsys, monkeypatch):
        from repro.experiments import channel

        runs = []
        real = channel.run_batch
        monkeypatch.setattr(channel, "FAST", ((16, 42), 100, 0.1))
        monkeypatch.setattr(
            channel, "run_batch", lambda specs: runs.append(specs) or real(specs)
        )
        assert main(["fig6", "fig7", "--fast"]) == 0
        assert capsys.readouterr().out.count("completed in") == 2
        assert len(runs) == 1

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_requires_argument(self):
        with pytest.raises(SystemExit):
            main([])


class TestCheckpointFlags:
    def test_flags_set_the_process_policy(self, tmp_path, monkeypatch):
        from repro.config import ENV_CKPT_DIR as ENV_DIR
        from repro.config import ENV_CKPT_EVERY as ENV_EVERY
        from repro.config import ENV_CKPT_RESUME as ENV_RESUME

        # Register the vars with monkeypatch so main()'s direct writes
        # are rolled back at teardown.
        for var in (ENV_DIR, ENV_EVERY, ENV_RESUME):
            monkeypatch.setenv(var, "")
        root = tmp_path / "ckpt"
        assert (
            main(
                [
                    "ext-adaptation",
                    "--checkpoint-dir",
                    str(root),
                    "--checkpoint-every",
                    "50",
                ]
            )
            == 0
        )
        import os

        assert os.environ[ENV_DIR] == str(root)
        assert os.environ[ENV_EVERY] == "50"
        assert os.environ[ENV_RESUME] == "0"

    def test_interval_without_dir_rejected(self):
        with pytest.raises(SystemExit):
            main(["ext-adaptation", "--checkpoint-every", "10"])

    def test_resume_without_dir_rejected(self):
        with pytest.raises(SystemExit):
            main(["ext-adaptation", "--resume"])
