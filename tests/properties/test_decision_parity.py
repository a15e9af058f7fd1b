"""Parity between the centralized policy (what the virtual-time
simulator and every gathered driver decision call) and the neighbour-only
protocol real ranks of a 1-D chain run: given identical load indices,
the outflows each rank derives through actual messages with rank ± 1 on
the ``threads`` transport equal ``make_policy(name, cfg).decide(...)`` —
whether or not the own-count clamp binds.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.partition import SlicePartition
from repro.core.policies import RemappingConfig, make_policy
from repro.parallel.driver import neighbour_window_edges
from repro.parallel.threads import run_spmd

PLANE_POINTS = 100


def distributed_flows(
    counts_planes: list[int], times: np.ndarray, policy: str
) -> np.ndarray:
    """Run the driver's neighbour-only decision on one thread per rank
    and fold the ranks' own outflows into chain edge flows."""
    config = RemappingConfig()

    def rank_main(comm):
        return neighbour_window_edges(
            comm,
            0,
            counts_planes[comm.rank],
            float(times[comm.rank]),
            PLANE_POINTS,
            policy,
            config,
        )

    edges = run_spmd(len(counts_planes), rank_main, timeout=60.0)
    flows = np.zeros(len(counts_planes) - 1, dtype=np.int64)
    for rank, (low, high) in enumerate(edges):
        if rank + 1 < len(edges):
            # Both endpoints of an edge netted the same two proposals.
            assert high[1] == -edges[rank + 1][0][1]
            flows[rank] += high[2]
        if rank > 0:
            flows[rank - 1] -= low[2]
        # A rank ships at most what the netting made due.
        assert all(0 <= out <= max(due, 0) for _, due, out in (low, high))
    return flows


def central_flows(
    counts_planes: list[int], times: np.ndarray, policy: str
) -> np.ndarray:
    return make_policy(policy, RemappingConfig()).decide(
        SlicePartition(counts_planes, PLANE_POINTS), times
    )


def make_times(counts_planes, availabilities):
    counts = np.array(counts_planes, dtype=np.float64) * PLANE_POINTS
    return counts * 1e-6 / np.asarray(availabilities)


def drawn_times(counts_planes, seed):
    rng = np.random.default_rng(seed)
    return make_times(counts_planes, rng.uniform(0.05, 1.0, len(counts_planes)))


#: Chains of 3-6 ranks, short enough (1-12 planes) and uneven enough
#: (availabilities down to 5 %) that the clamp binds in a fair share.
scenario = st.tuples(
    st.lists(st.integers(1, 12), min_size=3, max_size=6),
    st.integers(0, 2**16),
)

#: The smallest chain on which the simulator's and the driver's clamp
#: disagreed before they shared one: rank 1 owns 2 planes, is due 3 from
#: rank 2 and owes 4 to rank 0.  A planner crediting the inflow ships
#: ``[-4, -3]``; a rank that sends before it receives ships 1.
PINNED = ([2, 2, 4], (1.0, 0.25, 0.1))


@pytest.mark.parametrize("policy", ["filtered", "conservative"])
def test_pinned_clamp_case(policy):
    counts_planes, availabilities = PINNED
    times = make_times(counts_planes, availabilities)
    central = central_flows(counts_planes, times, policy)
    assert np.array_equal(
        central, distributed_flows(counts_planes, times, policy)
    )
    if policy == "filtered":
        assert central.tolist() == [-1, -3]


@given(scenario=scenario)
@example(scenario=([2, 2, 4, 9], 7))
@settings(max_examples=60, deadline=None)
def test_filtered_parity(scenario):
    counts_planes, seed = scenario
    times = drawn_times(counts_planes, seed)
    assert np.array_equal(
        central_flows(counts_planes, times, "filtered"),
        distributed_flows(counts_planes, times, "filtered"),
    )


@given(scenario=scenario)
@settings(max_examples=60, deadline=None)
def test_conservative_parity(scenario):
    counts_planes, seed = scenario
    times = drawn_times(counts_planes, seed)
    assert np.array_equal(
        central_flows(counts_planes, times, "conservative"),
        distributed_flows(counts_planes, times, "conservative"),
    )


@given(scenario=scenario)
@settings(max_examples=40, deadline=None)
def test_distributed_flows_feasible(scenario):
    counts_planes, seed = scenario
    flows = distributed_flows(
        counts_planes, drawn_times(counts_planes, seed), "filtered"
    )
    part = SlicePartition(counts_planes, PLANE_POINTS)
    part.apply_edge_flows(flows)  # must not raise
    assert (part.plane_counts() >= 1).all()
