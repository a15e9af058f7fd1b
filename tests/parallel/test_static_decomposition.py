import numpy as np
import pytest

from repro.cluster.costmodel import PAPER_COST_MODEL
from repro.parallel.static_decomposition import (
    DecompositionPlan,
    best_plan,
    compare_kinds,
    enumerate_plans,
    factorizations,
)

PAPER_GRID = (400, 200, 20)


class TestFactorizations:
    def test_1d(self):
        assert factorizations(6, 1) == [(6,)]

    def test_2d(self):
        out = set(factorizations(6, 2))
        assert out == {(1, 6), (2, 3), (3, 2), (6, 1)}

    def test_products_correct(self):
        for f in factorizations(20, 3):
            assert np.prod(f) == 20

    def test_count_3d(self):
        # 20 = 2^2 * 5 -> d(n) over ordered triples.
        assert len(factorizations(20, 3)) == 18


class TestDecompositionPlan:
    def test_kind_classification(self):
        assert DecompositionPlan(PAPER_GRID, (20, 1, 1)).kind == "slice"
        assert DecompositionPlan(PAPER_GRID, (5, 4, 1)).kind == "box"
        assert DecompositionPlan(PAPER_GRID, (5, 2, 2)).kind == "cubic"
        assert DecompositionPlan(PAPER_GRID, (1, 1, 1)).kind == "trivial"

    def test_slice_surface(self):
        plan = DecompositionPlan(PAPER_GRID, (20, 1, 1))
        assert plan.halo_surface() == 2 * 200 * 20

    def test_neighbour_counts(self):
        assert DecompositionPlan(PAPER_GRID, (20, 1, 1)).neighbour_count() == 2
        assert DecompositionPlan(PAPER_GRID, (5, 4, 1)).neighbour_count() == 4
        assert DecompositionPlan(PAPER_GRID, (5, 2, 2)).neighbour_count() == 6

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            DecompositionPlan((10, 4), (1, 8))

    def test_uncut_axis_free(self):
        plan = DecompositionPlan((100, 100), (4, 1))
        assert plan.halo_surface() == 2 * 100

    def test_comm_cost_positive(self):
        plan = DecompositionPlan(PAPER_GRID, (5, 4, 1))
        assert plan.phase_comm_cost(PAPER_COST_MODEL, 80.0) > 0


class TestSelection:
    def test_enumerate_excludes_infeasible(self):
        plans = enumerate_plans((8, 4), 8)
        for p in plans:
            assert p.proc_grid[1] <= 4

    def test_box_minimizes_surface_on_paper_grid(self):
        """The paper's anisotropic grid: a 5x4 box has the smallest halo
        surface..."""
        plan = best_plan(PAPER_GRID, 20, by="surface")
        assert plan.kind == "box"

    def test_slice_minimizes_cost_on_paper_grid(self):
        """...but the slice wins on message-overhead-dominated cost —
        which is why the paper slices along x."""
        plan = best_plan(PAPER_GRID, 20, by="cost")
        assert plan.proc_grid == (20, 1, 1)

    def test_compare_kinds_has_all_three(self):
        kinds = compare_kinds(PAPER_GRID, 20)
        assert set(kinds) == {"slice", "box", "cubic"}

    def test_isotropic_grid_prefers_blocks_by_surface(self):
        plan = best_plan((128, 128, 128), 64, by="surface")
        assert plan.proc_grid == (4, 4, 4)

    def test_invalid_by(self):
        with pytest.raises(ValueError):
            best_plan(PAPER_GRID, 20, by="vibes")

    def test_no_feasible_plan(self):
        with pytest.raises(ValueError):
            enumerate_plans((2, 2), 64)
