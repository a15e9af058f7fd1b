import numpy as np
import pytest

from repro.core.conflict import (
    clamp_outflows,
    clamp_plane_flows,
    clamp_to_owned,
    flows_to_planes,
    net_edge_proposals,
)
from repro.core.partition import SlicePartition


class TestNetEdgeProposals:
    def test_one_sided(self):
        net = net_edge_proposals(
            np.array([100.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0])
        )
        assert net.tolist() == [100.0, 0.0]

    def test_opposing_proposals_cancel(self):
        give_right = np.array([100.0, 0.0])
        give_left = np.array([0.0, 30.0])
        net = net_edge_proposals(give_right, give_left)
        assert net.tolist() == [70.0]

    def test_receiver_wins_when_larger(self):
        net = net_edge_proposals(np.array([10.0, 0.0]), np.array([0.0, 50.0]))
        assert net.tolist() == [-40.0]

    def test_negative_proposals_rejected(self):
        with pytest.raises(ValueError):
            net_edge_proposals(np.array([-1.0, 0.0]), np.array([0.0, 0.0]))

    def test_boundary_nodes_cannot_propose_outward(self):
        with pytest.raises(ValueError, match="last node"):
            net_edge_proposals(np.array([0.0, 5.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="first node"):
            net_edge_proposals(np.array([0.0, 0.0]), np.array([5.0, 0.0]))


class TestFlowsToPlanes:
    def test_truncates_toward_zero(self):
        flows = flows_to_planes(np.array([3999.0, -4001.0, 8000.0]), 4000)
        assert flows.tolist() == [0, -1, 2]

    def test_invalid_plane_points(self):
        with pytest.raises(ValueError):
            flows_to_planes(np.array([1.0]), 0)


class TestClampToOwned:
    """The send-before-receive clamp: what a node ships is bounded by
    what it owns before the round, whatever it is about to receive."""

    def test_feasible_untouched(self):
        p = SlicePartition([10, 10, 10], 100)
        assert clamp_to_owned(np.array([3, -2]), p).tolist() == [3, -2]

    def test_inflow_is_not_credited(self):
        # The relay clamp_plane_flows keeps: node 1 owns one plane and
        # cannot forward the four it has not received yet.
        p = SlicePartition([10, 1, 10], 100)
        assert clamp_plane_flows(np.array([4, 4]), p).tolist() == [4, 4]
        assert clamp_to_owned(np.array([4, 4]), p).tolist() == [4, 0]

    def test_two_edge_giver_splits_the_cut_ceil_toward_the_right(self):
        # Node 1 owes 3 left and 4 right but can spare only 4: the cut
        # of 3 splits 4/7 -> ceil 2 off the right edge, 1 off the left.
        p = SlicePartition([5, 5, 5], 100)
        assert clamp_to_owned(np.array([-3, 4]), p).tolist() == [-2, 2]
        assert clamp_outflows(3, 4, 4) == (2, 2)
        # An even owe with an odd cut: the odd plane comes off the right.
        assert clamp_outflows(3, 3, 3) == (2, 1)

    def test_every_giver_is_cut_from_the_unclamped_flows(self):
        # One pass: node 2's cut does not depend on node 1's.
        p = SlicePartition([2, 2, 4], 100)
        assert clamp_to_owned(np.array([-4, -3]), p).tolist() == [-1, -3]

    def test_min_planes_respected(self):
        p = SlicePartition([6, 6], 100, min_planes=3)
        assert clamp_to_owned(np.array([5]), p).tolist() == [3]
        assert clamp_to_owned(np.array([-5]), p).tolist() == [-3]

    def test_input_not_mutated_and_length_checked(self):
        p = SlicePartition([3, 3], 100)
        flows = np.array([5])
        clamp_to_owned(flows, p)
        assert flows.tolist() == [5]
        with pytest.raises(ValueError):
            clamp_to_owned(np.array([1, 1]), p)


class TestClampPlaneFlows:
    def test_feasible_untouched(self):
        p = SlicePartition([10, 10, 10], 100)
        flows = np.array([3, -2])
        out = clamp_plane_flows(flows, p)
        assert out.tolist() == [3, -2]

    def test_overdraw_on_one_edge(self):
        p = SlicePartition([5, 5], 100)
        out = clamp_plane_flows(np.array([7]), p)
        assert out.tolist() == [4]  # keeps min_planes = 1

    def test_double_sided_overdraw_split_proportionally(self):
        # Node 1 gives 10 left and 10 right but has only 19 to spare.
        p = SlicePartition([20, 20, 20], 100)
        out = clamp_plane_flows(np.array([-10, 10]), p)
        assert out[1] - (-out[0]) in (-1, 0, 1)  # roughly even split
        assert 20 + out[0] - out[1] >= 1

    def test_input_not_mutated(self):
        p = SlicePartition([3, 3], 100)
        flows = np.array([5])
        clamp_plane_flows(flows, p)
        assert flows.tolist() == [5]

    def test_chain_remains_feasible(self):
        p = SlicePartition([2, 2, 2, 20], 100)
        out = clamp_plane_flows(np.array([-1, -1, -15]), p)
        new = p.plane_counts()
        new[:-1] -= out
        new[1:] += out
        assert (new >= 1).all()

    def test_wrong_length(self):
        p = SlicePartition([5, 5], 100)
        with pytest.raises(ValueError):
            clamp_plane_flows(np.array([1, 1]), p)

    def test_through_traffic_preserved(self):
        """A relay node (in = out) is feasible and must stay untouched."""
        p = SlicePartition([10, 1, 10], 100)
        out = clamp_plane_flows(np.array([4, 4]), p)
        assert out.tolist() == [4, 4]
