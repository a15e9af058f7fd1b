"""Conflict resolution and feasibility clamping for migration proposals.

Two adjacent windows can issue opposing transfers across the same edge
(node i says "give to i+1" while node i+1 says "give to i").  The paper
deploys a conflict resolution between the two nodes to "redistribute a
proper amount"; we net the two proposals.  Afterwards, flows are rounded
to whole planes and clamped so no node is driven below its minimum
allocation even when it gives on both edges simultaneously.

Two clamps exist because two executors exist.  Real ranks *send before
they receive* (every rank ships its outgoing planes first, so no one
waits on a chain of relays): a rank cannot forward planes it has not
got, and :func:`clamp_to_owned` bounds each node's outflow by what it
owns **before** the round — one pass, computable by a rank from its own
count alone.  That is the clamp of the windowed (conservative/filtered)
schemes on both substrates.  :func:`clamp_plane_flows` is the looser
bookkeeping clamp — it credits a node with what it is about to receive,
so relayed through-traffic survives — used by the centrally computed
``global`` and ``diffusion`` baselines.
"""

from __future__ import annotations

import numpy as np

from repro.core.partition import SlicePartition


def net_edge_proposals(
    give_right: np.ndarray, give_left: np.ndarray
) -> np.ndarray:
    """Net opposing point proposals per edge.

    Parameters
    ----------
    give_right:
        ``give_right[i]`` = points node i proposes to send to node i+1
        (length P; the last entry must be 0).
    give_left:
        ``give_left[i]`` = points node i proposes to send to node i-1
        (length P; the first entry must be 0).

    Returns
    -------
    Net point flow per edge, length P-1; positive = from i to i+1.
    """
    give_right = np.asarray(give_right, dtype=np.float64)
    give_left = np.asarray(give_left, dtype=np.float64)
    if give_right.shape != give_left.shape or give_right.ndim != 1:
        raise ValueError("proposal vectors must be 1-D and equal length")
    if (give_right < 0).any() or (give_left < 0).any():
        raise ValueError("proposals must be non-negative")
    if give_right.size and give_right[-1] != 0:
        raise ValueError("last node cannot give right")
    if give_left.size and give_left[0] != 0:
        raise ValueError("first node cannot give left")
    return give_right[:-1] - give_left[1:]


def flows_to_planes(point_flows: np.ndarray, plane_points: int) -> np.ndarray:
    """Round point flows toward zero to whole planes (lazy: partial planes
    never move): floor division of the magnitude, so the two endpoints
    of an edge, which see the same net with opposite signs, agree."""
    if plane_points <= 0:
        raise ValueError("plane_points must be positive")
    flows = np.asarray(point_flows, dtype=np.float64)
    planes = (np.abs(flows) // plane_points).astype(np.int64)
    return np.where(flows < 0, -planes, planes)


def clamp_outflows(out_left: int, out_right: int, spare: int) -> tuple[int, int]:
    """Cut one node's two outflows to at most *spare* planes in total.

    The cut is split in proportion to the outflows (so an evacuation
    spreads to both neighbours instead of lopsidedly to one), the odd
    plane going against the right edge (ceil there, remainder left).
    """
    total = out_left + out_right
    if total <= spare:
        return out_left, out_right
    need = total - max(spare, 0)
    cut_right = min(out_right, -(-need * out_right // total))  # ceil
    cut_left = min(out_left, need - cut_right)
    return out_left - cut_left, out_right - cut_right


def clamp_to_owned(flows: np.ndarray, partition: SlicePartition) -> np.ndarray:
    """Reduce flows so every node ships at most what it owns now, less
    ``min_planes`` — the send-before-receive clamp (module docstring).

    One pass over the *unclamped* flows: each edge is an outflow of
    exactly one node, so the per-node cuts never interact and a real
    rank reaches the same numbers knowing only its own count and its own
    two edges.  Returns a new flow vector (never mutates the input).
    """
    flows = np.asarray(flows, dtype=np.int64)
    n = partition.n_nodes
    if flows.shape != (n - 1,):
        raise ValueError(f"need {n - 1} flows, got {flows.shape}")
    out = flows.copy()
    for i in range(n):
        out_left = max(-int(flows[i - 1]), 0) if i > 0 else 0
        out_right = max(int(flows[i]), 0) if i < n - 1 else 0
        keep_left, keep_right = clamp_outflows(
            out_left, out_right, partition.max_outflow(i)
        )
        if keep_left != out_left:
            out[i - 1] = -keep_left
        if keep_right != out_right:
            out[i] = keep_right
    return out


def clamp_plane_flows(
    flows: np.ndarray, partition: SlicePartition
) -> np.ndarray:
    """Reduce flows so every node keeps >= min_planes after applying them.

    A node may give on both edges at once; clamping reduces its outflows
    *proportionally* (so an evacuation spreads to both neighbours instead
    of lopsidedly to one), deterministically, until the plan is feasible.
    Returns a new flow vector (never mutates the input).
    """
    flows = np.asarray(flows, dtype=np.int64).copy()
    counts = partition.plane_counts()
    n = partition.n_nodes
    if flows.shape != (n - 1,):
        raise ValueError(f"need {n - 1} flows, got {flows.shape}")
    min_planes = partition.min_planes

    for _ in range(n * 2 + 4):  # generous bound; each pass strictly reduces flow
        new_counts = counts.copy()
        new_counts[:-1] -= flows
        new_counts[1:] += flows
        deficits = min_planes - new_counts
        worst = int(np.argmax(deficits))
        if deficits[worst] <= 0:
            return flows
        need = int(deficits[worst])
        # Outflows of the deficit node: right edge (flow[worst] > 0) and
        # left edge (flow[worst-1] < 0).
        out_right = int(flows[worst]) if worst < n - 1 and flows[worst] > 0 else 0
        out_left = -int(flows[worst - 1]) if worst > 0 and flows[worst - 1] < 0 else 0
        total_out = out_right + out_left
        if total_out == 0:
            raise ValueError(
                f"node {worst} infeasible without any outflow to reduce "
                f"(counts={counts.tolist()}, flows={flows.tolist()})"
            )
        keep_left, keep_right = clamp_outflows(
            out_left, out_right, total_out - need
        )
        if keep_right != out_right:
            flows[worst] = keep_right
        if keep_left != out_left:
            flows[worst - 1] = -keep_left
    raise RuntimeError("flow clamping failed to converge (internal error)")
