"""Remapping policies: no-remapping, conservative, filtered (the paper's
contribution) and global.

A policy maps the current partition plus per-node predicted phase times to
integer *edge flows*: ``flows[i]`` planes move from node i to node i+1
(negative values move leftward).  Policies are pure decision functions —
the virtual-time cluster simulator and the real parallel driver both call
them and then charge/perform the migration themselves.

Where the driver has gathered the load indices (the ``global`` scheme)
it calls ``make_policy(name, cfg).decide(...)`` — the simulator's own
objects.  A windowed scheme keeps the paper's neighbour-only exchange and never sees
global arrays; there each rank evaluates its own slice of the same
pipeline — :func:`window_proposal` on its three-node window, the
per-edge netting, :func:`~repro.core.conflict.flows_to_planes` and
:func:`~repro.core.conflict.clamp_outflows` — so the substrates make
identical decisions given identical load indices
(``tests/properties/test_decision_parity.py`` runs both on real
messages).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.core.conflict import (
    clamp_plane_flows,
    clamp_to_owned,
    flows_to_planes,
    net_edge_proposals,
)
from repro.core.exchange import (
    chain_flows_for_targets,
    desired_transfer,
    proportional_targets,
    speeds_from,
)
from repro.core.overredistribution import (
    is_confirmed_slow,
    over_redistribution_factor,
)
from repro.core.partition import SlicePartition
from repro.core.prediction import HarmonicMeanPredictor, Predictor
from repro.util.validation import check_in_range, check_integer, check_positive


@dataclass(frozen=True)
class RemappingConfig:
    """Tunables shared by the remapping schemes.

    Attributes
    ----------
    interval:
        Phases between remap attempts (Figure 2's REMAPPING_INTERVAL).
    history:
        Number of recent phase times kept per node (the paper's K = 10).
    predictor:
        Load-index predictor; the paper uses the harmonic mean.
    threshold_points:
        Lazy-migration threshold: proposals below this many points are
        dropped.  ``None`` means one plane (the paper's 4000 points for a
        200 x 20 cross-section).
    fast_to_slow_tolerance:
        "Don't move points from a fast node to a slow node": a transfer is
        blocked when the receiver's speed is below ``(1 - tol)`` times the
        giver's.  The paper states the strict form (S_recv > S_giver); the
        small tolerance keeps equal-speed nodes able to re-balance counts
        after a slow node recovers.
    slow_ratio:
        Confirmed-slow detection: node speed below ``slow_ratio`` times its
        fastest neighbour.
    conservative_factor:
        Fraction of the computed transfer the conservative scheme actually
        ships (the classic delta/r with r = 2).
    max_beta:
        Cap on the over-redistribution factor beta = S_recv / S_giver.
    over_redistribution:
        Ablation switch: disable to make the filtered scheme ship the raw
        computed transfer from confirmed-slow nodes.
    exclude_slow_from_window:
        Ablation switch: disable the "minimize the use of a slow node"
        refinement where a confirmed-slow bystander is dropped from the
        window balance target (which is what lets the evacuated load keep
        diffusing outward past the slow node).
    """

    interval: int = 10
    history: int = 10
    predictor: Predictor = field(default_factory=HarmonicMeanPredictor)
    threshold_points: int | None = None
    fast_to_slow_tolerance: float = 0.05
    slow_ratio: float = 0.8
    conservative_factor: float = 0.5
    max_beta: float = 8.0
    over_redistribution: bool = True
    exclude_slow_from_window: bool = True

    def __post_init__(self) -> None:
        check_integer(self.interval, "interval", minimum=1)
        check_integer(self.history, "history", minimum=1)
        if self.threshold_points is not None:
            check_integer(self.threshold_points, "threshold_points", minimum=0)
        check_in_range(self.fast_to_slow_tolerance, "fast_to_slow_tolerance", 0.0, 1.0)
        check_in_range(self.slow_ratio, "slow_ratio", 0.0, 1.0)
        check_in_range(self.conservative_factor, "conservative_factor", 0.0, 1.0)
        check_positive(self.max_beta, "max_beta")

    def threshold_for(self, partition: SlicePartition) -> int:
        """Effective lazy threshold in points (default: one plane)."""
        if self.threshold_points is None:
            return partition.plane_points
        return self.threshold_points

    def threshold_points_for(self, plane_points: int) -> int:
        """Threshold given a plane size (for callers without a partition)."""
        if self.threshold_points is None:
            return plane_points
        return self.threshold_points


def window_proposal(
    counts: Sequence[float],
    speeds: Sequence[float],
    giver: int,
    receiver: int,
    config: RemappingConfig,
    threshold: float,
    *,
    filtered: bool,
) -> float:
    """Points that window-owner *giver* proposes to send to its adjacent
    *receiver* (indices into the window arrays, which must hold the
    giver's window: itself plus its existing neighbours).

    Applies, in order: the filtered scheme's slow-bystander exclusion, the
    triple-window balance equation, the lazy threshold, the
    fast-to-slow rule, and the scheme's scaling (conservative delta/2 or
    filtered over-redistribution).
    """
    counts_arr = np.asarray(counts, dtype=np.float64)
    speeds_arr = np.asarray(speeds, dtype=np.float64)
    if counts_arr.shape != speeds_arr.shape or counts_arr.ndim != 1:
        raise ValueError("counts and speeds must be matching 1-D arrays")
    n = counts_arr.size
    if not (0 <= giver < n and 0 <= receiver < n) or abs(giver - receiver) != 1:
        raise ValueError(
            f"giver {giver} and receiver {receiver} must be adjacent window "
            f"indices in [0, {n})"
        )

    members = list(range(n))
    if filtered and config.exclude_slow_from_window:
        kept = []
        for k in members:
            if k in (giver, receiver):
                kept.append(k)
                continue
            others = [float(speeds_arr[m]) for m in members if m != k]
            if is_confirmed_slow(
                float(speeds_arr[k]), others, slow_ratio=config.slow_ratio
            ):
                continue
            kept.append(k)
        members = kept

    amount = desired_transfer(
        counts_arr[members],
        speeds_arr[members],
        members.index(giver),
        members.index(receiver),
    )
    if amount <= threshold:
        return 0.0  # lazy: don't move a small number of points
    if speeds_arr[receiver] < (1.0 - config.fast_to_slow_tolerance) * speeds_arr[giver]:
        return 0.0  # never move points from a fast node to a slow one

    if not filtered:
        return amount * config.conservative_factor
    nbr_speeds = [float(speeds_arr[k]) for k in range(n) if k != giver]
    if config.over_redistribution and is_confirmed_slow(
        float(speeds_arr[giver]), nbr_speeds, slow_ratio=config.slow_ratio
    ):
        beta = over_redistribution_factor(
            float(speeds_arr[giver]),
            float(speeds_arr[receiver]),
            max_beta=config.max_beta,
        )
        return amount * beta
    return amount


class RemappingPolicy(ABC):
    """Decision function from (partition, predicted times) to edge flows."""

    #: Human-readable name used in reports.
    name: str = "abstract"
    #: True when the policy needs an all-node information exchange (the
    #: simulator charges the global synchronization cost for these).
    uses_global_exchange: bool = False

    def __init__(self, config: RemappingConfig | None = None):
        self.config = config or RemappingConfig()

    @abstractmethod
    def decide(
        self, partition: SlicePartition, predicted_times: np.ndarray
    ) -> np.ndarray:
        """Return integer plane flows per edge (length P-1), feasible for
        *partition* (callers may apply them directly)."""

    def _validate_times(
        self, partition: SlicePartition, predicted_times: np.ndarray
    ) -> np.ndarray:
        times = np.asarray(predicted_times, dtype=np.float64)
        if times.shape != (partition.n_nodes,):
            raise ValueError(
                f"need {partition.n_nodes} predicted times, got {times.shape}"
            )
        if (times <= 0).any():
            raise ValueError("predicted times must be positive")
        return times


class NoRemappingPolicy(RemappingPolicy):
    """Static decomposition: never move anything (the paper's baseline)."""

    name = "no-remap"

    def decide(
        self, partition: SlicePartition, predicted_times: np.ndarray
    ) -> np.ndarray:
        self._validate_times(partition, predicted_times)
        return np.zeros(partition.n_nodes - 1, dtype=np.int64)


class _LocalWindowPolicy(RemappingPolicy):
    """Shared machinery of the conservative and filtered schemes: each node
    balances its (i-1, i, i+1) window via :func:`window_proposal`, the
    proposals are netted per edge (conflict resolution), rounded to whole
    planes and clamped to what each node owns (real ranks send before
    they receive — see :mod:`repro.core.conflict`)."""

    #: Set by subclasses: whether window_proposal runs in filtered mode.
    filtered_mode = False

    def decide(
        self, partition: SlicePartition, predicted_times: np.ndarray
    ) -> np.ndarray:
        times = self._validate_times(partition, predicted_times)
        counts = partition.point_counts().astype(np.float64)
        speeds = speeds_from(counts, times)
        n = partition.n_nodes
        threshold = self.config.threshold_for(partition)

        give_right = np.zeros(n, dtype=np.float64)
        give_left = np.zeros(n, dtype=np.float64)
        for i in range(n):
            lo = max(0, i - 1)
            hi = min(n - 1, i + 1)
            w_counts = counts[lo : hi + 1]
            w_speeds = speeds[lo : hi + 1]
            for j, store in ((i + 1, give_right), (i - 1, give_left)):
                if not 0 <= j < n:
                    continue
                store[i] = window_proposal(
                    w_counts,
                    w_speeds,
                    i - lo,
                    j - lo,
                    self.config,
                    threshold,
                    filtered=self.filtered_mode,
                )

        point_flows = net_edge_proposals(give_right, give_left)
        plane_flows = flows_to_planes(point_flows, partition.plane_points)
        return clamp_to_owned(plane_flows, partition)


class ConservativePolicy(_LocalWindowPolicy):
    """Local balancing with conservative transfer (delta / 2): the
    Willebeek-Reeves-style baseline the paper compares against."""

    name = "conservative"
    filtered_mode = False


class FilteredPolicy(_LocalWindowPolicy):
    """The paper's filtered dynamic remapping: lazy thresholding plus
    over-redistribution (beta = S_recv / S_giver) from confirmed-slow
    nodes, which are also shunned in the window balance targets."""

    name = "filtered"
    filtered_mode = True


class GlobalPolicy(RemappingPolicy):
    """Global information exchange: assign points proportionally to speed
    across all nodes.  Employs the same lazy prediction but no
    over-redistribution; the simulator charges the all-node communication
    this requires."""

    name = "global"
    uses_global_exchange = True

    def decide(
        self, partition: SlicePartition, predicted_times: np.ndarray
    ) -> np.ndarray:
        times = self._validate_times(partition, predicted_times)
        counts = partition.point_counts().astype(np.float64)
        speeds = speeds_from(counts, times)
        targets_pts = proportional_targets(float(counts.sum()), speeds)
        threshold = self.config.threshold_for(partition)
        if np.abs(targets_pts - counts).max() < threshold:
            return np.zeros(partition.n_nodes - 1, dtype=np.int64)
        target_planes = _round_to_planes(
            targets_pts / partition.plane_points,
            partition.total_planes,
            partition.min_planes,
        )
        point_flows = chain_flows_for_targets(
            partition.plane_counts(), target_planes
        )
        plane_flows = np.rint(point_flows).astype(np.int64)
        return clamp_plane_flows(plane_flows, partition)


def _round_to_planes(
    raw: np.ndarray, total: int, min_planes: int
) -> np.ndarray:
    """Largest-remainder rounding of fractional plane targets to integers
    summing to *total*, respecting *min_planes* per node."""
    raw = np.maximum(np.asarray(raw, dtype=np.float64), min_planes)
    base = np.floor(raw).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        order = np.argsort(-(raw - base), kind="stable")
        for k in range(short):
            base[order[k % len(order)]] += 1
    elif short < 0:
        # Shave from the largest allocations, never below min_planes.
        order = np.argsort(-base, kind="stable")
        k = 0
        while short < 0:
            idx = order[k % len(order)]
            if base[idx] > min_planes:
                base[idx] -= 1
                short += 1
            k += 1
            if k > 10 * len(order) * max(1, -short):
                raise ValueError("cannot satisfy min_planes with given total")
    return base


class DiffusionPolicy(RemappingPolicy):
    """Classic first-order diffusion balancing (Cybenko): each edge moves a
    fixed fraction of the *weighted* count difference toward the slower
    side's deficit, using only pairwise information.

    Included as an extra baseline from the load-balancing literature the
    paper builds on (Willebeek-Lemair & Reeves); it neither thresholds by
    confidence nor over-redistributes, so it converges slowly and keeps
    feeding confirmed-slow nodes whenever their count is low.
    """

    name = "diffusion"

    def __init__(
        self,
        config: RemappingConfig | None = None,
        *,
        diffusion_rate: float = 0.5,
    ):
        super().__init__(config)
        if not 0.0 < diffusion_rate <= 1.0:
            raise ValueError(
                f"diffusion_rate must be in (0, 1], got {diffusion_rate}"
            )
        self.diffusion_rate = diffusion_rate

    def decide(
        self, partition: SlicePartition, predicted_times: np.ndarray
    ) -> np.ndarray:
        times = self._validate_times(partition, predicted_times)
        counts = partition.point_counts().astype(np.float64)
        speeds = speeds_from(counts, times)
        n = partition.n_nodes
        threshold = self.config.threshold_for(partition)

        point_flows = np.zeros(n - 1, dtype=np.float64)
        for e in range(n - 1):
            i, j = e, e + 1
            # Pairwise balance target: n'_i/S_i = n'_j/S_j.
            pair_total = counts[i] + counts[j]
            target_j = speeds[j] * pair_total / (speeds[i] + speeds[j])
            delta = target_j - counts[j]  # positive: i -> j
            flow = self.diffusion_rate * delta
            if abs(flow) <= threshold:
                continue
            point_flows[e] = flow

        plane_flows = flows_to_planes(point_flows, partition.plane_points)
        return clamp_plane_flows(plane_flows, partition)


POLICY_NAMES = ("no-remap", "conservative", "filtered", "global", "diffusion")


def make_policy(name: str, config: RemappingConfig | None = None) -> RemappingPolicy:
    """Factory by name: one of :data:`POLICY_NAMES`."""
    mapping = {
        "no-remap": NoRemappingPolicy,
        "conservative": ConservativePolicy,
        "filtered": FilteredPolicy,
        "global": GlobalPolicy,
        "diffusion": DiffusionPolicy,
    }
    try:
        cls = mapping[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; available: {POLICY_NAMES}"
        ) from None
    return cls(config)
