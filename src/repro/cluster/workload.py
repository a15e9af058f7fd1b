"""Background-load workload generators, mirroring the paper's experiments.

Three disturbance patterns appear in the evaluation:

- **fixed slow nodes** (Figures 8-10): a chosen set of nodes runs a
  CPU-intensive background job taking ~70% of the CPU for the whole run;
- **duty-cycle disturbance** (Figure 3): one node's competing job is busy
  for a fraction of every 10-second window and sleeps the rest;
- **transient spikes** (Table 1): every 10 seconds a *random* node gets a
  background job for 1-4 seconds.

Availability during a busy interval is ``busy_availability`` (default
0.35 — calibrated so one fixed slow node reproduces the paper's 717 s vs.
251 s no-remapping slowdown).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.cluster.trace import AvailabilityTrace
from repro.util.rng import make_rng
from repro.util.validation import check_in_range, check_integer, check_positive

#: Availability of the MPI process while a 70%-CPU background job runs.
DEFAULT_BUSY_AVAILABILITY = 0.35

#: The paper's disturbance window length (seconds).
DEFAULT_PERIOD = 10.0


def dedicated_traces(n_nodes: int) -> list[AvailabilityTrace]:
    """All nodes idle: availability 1 everywhere."""
    check_integer(n_nodes, "n_nodes", minimum=1)
    return [AvailabilityTrace(tail=1.0) for _ in range(n_nodes)]


def fixed_slow_traces(
    n_nodes: int,
    slow_nodes: Iterable[int],
    *,
    busy_availability: float = DEFAULT_BUSY_AVAILABILITY,
    jitter: float = 0.0,
    jitter_period: float = 2.0,
    seed: int | np.random.Generator | None = 0,
) -> list[AvailabilityTrace]:
    """A fixed set of nodes shared with a persistent background job.

    With ``jitter > 0`` the background job is not a metronome: each slow
    node's availability is redrawn every *jitter_period* seconds from a
    normal distribution around *busy_availability* (clipped to (0.05, 1]).
    Real competing jobs behave this way, and the fluctuation is what makes
    the no-remapping run degrade further as more slow nodes join (each
    phase waits for the momentarily slowest one).
    """
    check_integer(n_nodes, "n_nodes", minimum=1)
    check_in_range(busy_availability, "busy_availability", 0.0, 1.0, inclusive=False)
    check_in_range(jitter, "jitter", 0.0, 0.5)
    check_positive(jitter_period, "jitter_period")
    slow = set()
    for node in slow_nodes:
        node = check_integer(node, "slow node index", minimum=0)
        if node >= n_nodes:
            raise ValueError(f"slow node {node} out of range for {n_nodes} nodes")
        slow.add(node)
    rng = make_rng(seed)

    def jittered(node_rng: np.random.Generator) -> Iterator[tuple[float, float]]:
        k = 0
        while True:
            avail = float(
                np.clip(
                    node_rng.normal(busy_availability, jitter), 0.05, 1.0
                )
            )
            yield ((k + 1) * jitter_period, avail)
            k += 1

    traces: list[AvailabilityTrace] = []
    for i in range(n_nodes):
        if i not in slow:
            traces.append(AvailabilityTrace(tail=1.0))
        elif jitter == 0.0:
            traces.append(AvailabilityTrace(tail=busy_availability))
        else:
            child = make_rng(int(rng.integers(0, 2**63)))
            traces.append(
                AvailabilityTrace(
                    extender=jittered(child), tail=busy_availability
                )
            )
    return traces


def duty_cycle_trace(
    duty: float,
    *,
    period: float = DEFAULT_PERIOD,
    busy_availability: float = DEFAULT_BUSY_AVAILABILITY,
) -> AvailabilityTrace:
    """Figure 3's disturbance: every *period* seconds the competing job is
    busy for ``duty * period`` seconds, then sleeps."""
    check_in_range(duty, "duty", 0.0, 1.0)
    check_positive(period, "period")
    check_in_range(busy_availability, "busy_availability", 0.0, 1.0, inclusive=False)
    if duty == 0.0:
        return AvailabilityTrace(tail=1.0)
    if duty == 1.0:
        return AvailabilityTrace(tail=busy_availability)

    def gen() -> Iterator[tuple[float, float]]:
        k = 0
        while True:
            start = k * period
            yield (start + duty * period, busy_availability)
            yield (start + period, 1.0)
            k += 1

    return AvailabilityTrace(extender=gen(), tail=1.0)


def delayed_slow_traces(
    n_nodes: int,
    slow_node: int,
    onset: float,
    *,
    busy_availability: float = DEFAULT_BUSY_AVAILABILITY,
) -> list[AvailabilityTrace]:
    """One node becomes persistently slow at time *onset* (seconds) —
    the adaptation-speed scenario: how quickly does each scheme react to
    a background job that starts mid-run?"""
    check_integer(n_nodes, "n_nodes", minimum=1)
    node = check_integer(slow_node, "slow_node", minimum=0)
    if node >= n_nodes:
        raise ValueError(f"slow_node {node} out of range for {n_nodes} nodes")
    check_positive(onset, "onset")
    check_in_range(busy_availability, "busy_availability", 0.0, 1.0, inclusive=False)
    traces = []
    for i in range(n_nodes):
        if i == node:
            traces.append(
                AvailabilityTrace(
                    [(onset, 1.0)], tail=busy_availability
                )
            )
        else:
            traces.append(AvailabilityTrace(tail=1.0))
    return traces


def transient_spike_traces(
    n_nodes: int,
    spike_length: float,
    *,
    period: float = DEFAULT_PERIOD,
    busy_availability: float = DEFAULT_BUSY_AVAILABILITY,
    seed: int | np.random.Generator | None = 0,
) -> list[AvailabilityTrace]:
    """Table 1's workload: every *period* seconds one uniformly random node
    runs a background job for *spike_length* seconds.

    All node traces share one spike schedule drawn from *seed*, generated
    lazily so arbitrarily long simulations stay covered.
    """
    check_integer(n_nodes, "n_nodes", minimum=1)
    check_positive(spike_length, "spike_length")
    check_positive(period, "period")
    if spike_length > period:
        raise ValueError(
            f"spike_length {spike_length} exceeds the window period {period}"
        )
    check_in_range(busy_availability, "busy_availability", 0.0, 1.0, inclusive=False)
    rng = make_rng(seed)

    # One shared lazily-grown schedule: window k hits victims[k].
    victims: list[int] = []

    def victim(k: int) -> int:
        while len(victims) <= k:
            victims.append(int(rng.integers(0, n_nodes)))
        return victims[k]

    def gen(node: int) -> Iterator[tuple[float, float]]:
        k = 0
        while True:
            start = k * period
            if victim(k) == node:
                yield (start + spike_length, busy_availability)
                yield (start + period, 1.0)
            else:
                yield (start + period, 1.0)
            k += 1

    return [AvailabilityTrace(extender=gen(i), tail=1.0) for i in range(n_nodes)]
