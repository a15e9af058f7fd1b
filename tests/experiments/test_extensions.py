"""Tests for the extension experiments (design-space boundaries beyond
the paper's own evaluation)."""

import pytest

from repro.experiments import ext_heterogeneous


class TestHeterogeneousCluster:
    @pytest.fixture(scope="class")
    def report(self):
        return ext_heterogeneous.run(fast=True)

    def test_global_wins(self, report):
        totals = report.data["totals"]
        assert totals["global"] < 0.85 * totals["no-remap"]
        assert totals["global"] == min(totals.values())

    def test_local_schemes_plateau(self, report):
        """The design boundary: filtered/conservative barely improve on a
        global speed gradient (they are built for localized contention)."""
        totals = report.data["totals"]
        for name in ("filtered", "conservative", "diffusion"):
            assert totals[name] > 0.95 * totals["no-remap"]

    def test_global_moves_most_planes(self, report):
        moved = report.data["planes_moved"]
        assert moved["global"] > 5 * max(
            moved["filtered"], moved["conservative"], moved["diffusion"]
        )
