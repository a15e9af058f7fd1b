import numpy as np
import pytest

from repro.core.partition import SlicePartition


class TestConstruction:
    def test_even_exact(self):
        p = SlicePartition.even(400, 20, 4000)
        assert p.plane_counts().tolist() == [20] * 20
        assert p.total_planes == 400

    def test_even_with_remainder(self):
        p = SlicePartition.even(10, 3, 100)
        assert p.plane_counts().tolist() == [4, 3, 3]

    def test_even_too_few_planes(self):
        with pytest.raises(ValueError):
            SlicePartition.even(2, 3, 100)

    def test_min_planes_enforced(self):
        with pytest.raises(ValueError, match="min_planes"):
            SlicePartition([2, 0, 2], 100)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SlicePartition([], 100)


class TestQueries:
    def test_point_counts(self):
        p = SlicePartition([2, 3], 100)
        assert p.point_counts().tolist() == [200, 300]
        assert p.points(1) == 300

    def test_max_outflow(self):
        p = SlicePartition([5, 1], 10)
        assert p.max_outflow(0) == 4
        assert p.max_outflow(1) == 0


class TestEdgeFlows:
    def test_rightward_flow(self):
        p = SlicePartition([5, 5], 10)
        p.apply_edge_flows([2])
        assert p.plane_counts().tolist() == [3, 7]

    def test_leftward_flow(self):
        p = SlicePartition([5, 5], 10)
        p.apply_edge_flows([-2])
        assert p.plane_counts().tolist() == [7, 3]

    def test_conservation(self):
        p = SlicePartition([5, 5, 5, 5], 10)
        p.apply_edge_flows([1, -2, 2])
        assert p.total_planes == 20

    def test_through_flow(self):
        p = SlicePartition([5, 5, 5], 10)
        p.apply_edge_flows([2, 2])
        assert p.plane_counts().tolist() == [3, 5, 7]

    def test_infeasible_rejected_atomically(self):
        p = SlicePartition([2, 2], 10)
        with pytest.raises(ValueError, match="min"):
            p.apply_edge_flows([2])
        assert p.plane_counts().tolist() == [2, 2]  # unchanged

    def test_wrong_length_rejected(self):
        p = SlicePartition([5, 5], 10)
        with pytest.raises(ValueError):
            p.apply_edge_flows([1, 1])


class TestCopyEq:
    def test_copy_independent(self):
        p = SlicePartition([5, 5], 10)
        q = p.copy()
        q.apply_edge_flows([1])
        assert p.plane_counts().tolist() == [5, 5]

    def test_equality(self):
        assert SlicePartition([5, 5], 10) == SlicePartition([5, 5], 10)
        assert SlicePartition([5, 5], 10) != SlicePartition([4, 6], 10)
        assert SlicePartition([5, 5], 10) != SlicePartition([5, 5], 20)

    def test_repr(self):
        assert "SlicePartition" in repr(SlicePartition([5, 5], 10))
