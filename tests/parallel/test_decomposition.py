import numpy as np
import pytest

from repro.parallel.decomposition import CartTopology, even_split, grid_for


class TestEvenSplit:
    def test_remainder_goes_to_leading_bands(self):
        assert even_split(20, 3) == [7, 7, 6]
        assert even_split(14, 2) == [7, 7]

    def test_exact_division(self):
        assert even_split(12, 4) == [3, 3, 3, 3]

    def test_too_many_parts_rejected(self):
        with pytest.raises(ValueError):
            even_split(3, 4)


class TestGridFor:
    def test_most_square_factorization(self):
        assert grid_for(4, (20, 14)) == (2, 2)
        assert grid_for(6, (20, 14)) == (2, 3)

    def test_narrow_domain_forces_slab(self):
        # Only one cross-section column: no 2-D grid fits.
        assert grid_for(4, (20, 1)) == (4, 1)

    def test_impossible_grid_rejected(self):
        with pytest.raises(ValueError, match="fits"):
            grid_for(8, (4, 1))


class TestCartTopology:
    def test_row_major_rank_layout(self):
        topo = CartTopology.from_shape((20, 14), rows=2, cols=3)
        assert topo.size == 6
        for rank in range(topo.size):
            row, col = topo.coords(rank)
            assert topo.rank_of(row, col) == rank
        assert topo.coords(4) == (1, 1)

    def test_ownership_rectangles_tile_the_domain(self):
        topo = CartTopology.from_shape((20, 14), rows=3, cols=2)
        seen = np.zeros((20, 14), dtype=int)
        for rank in range(topo.size):
            ps, pc, cs, cc = topo.rectangle(rank)
            seen[ps:ps + pc, cs:cs + cc] += 1
        assert (seen == 1).all()

    def test_neighbour_rings_are_periodic_on_both_axes(self):
        topo = CartTopology.from_shape((20, 14), rows=2, cols=2)
        # rank 0 is (row 0, col 0); the grid is a torus.
        assert topo.neighbour(0, 0, +1) == topo.rank_of(1, 0)
        assert topo.neighbour(0, 0, -1) == topo.rank_of(1, 0)
        assert topo.neighbour(0, 1, +1) == topo.rank_of(0, 1)
        assert topo.neighbour(3, 0, +1) == topo.rank_of(0, 1)
        with pytest.raises(ValueError):
            topo.neighbour(0, 2, +1)

    def test_degenerate_single_column_matches_slab(self):
        topo = CartTopology([7, 7, 6], [14])
        assert topo.cols == 1
        for rank, (planes, start) in enumerate([(7, 0), (7, 7), (6, 14)]):
            assert topo.coords(rank) == (rank, 0)
            assert topo.planes(rank) == planes
            assert topo.plane_start(rank) == start
            # The x ring of the paper's 1-D scheme.
            assert topo.neighbour(rank, 0, +1) == (rank + 1) % 3
            assert topo.neighbour(rank, 0, -1) == (rank - 1) % 3

    def test_adjusting_bands_keeps_the_grid_cartesian(self):
        topo = CartTopology.from_shape((20, 14), rows=2, cols=2)
        topo.adjust_row(0, +3)
        topo.adjust_row(1, -3)
        topo.adjust_col(0, -2)
        topo.adjust_col(1, +2)
        assert topo.row_counts() == [13, 7]
        assert topo.col_counts() == [5, 9]
        assert topo.total_planes == 20 and topo.total_cols == 14
        with pytest.raises(ValueError):
            topo.adjust_row(1, -7)

    def test_rank_and_band_bounds_checked(self):
        topo = CartTopology.from_shape((20, 14), rows=2, cols=2)
        with pytest.raises(IndexError):
            topo.coords(4)
        with pytest.raises(IndexError):
            topo.rank_of(2, 0)
        with pytest.raises(ValueError):
            CartTopology([], [14])

    def test_2d_needs_a_cross_axis(self):
        with pytest.raises(ValueError, match="cross-section"):
            CartTopology.from_shape((20,), rows=2, cols=2)
