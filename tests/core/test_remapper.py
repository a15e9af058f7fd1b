import numpy as np
import pytest

from repro.core.partition import SlicePartition
from repro.core.policies import FilteredPolicy, NoRemappingPolicy, RemappingConfig
from repro.core.remapper import Remapper


def make_remapper(interval=5, nodes=6, policy_cls=FilteredPolicy):
    part = SlicePartition.even(nodes * 10, nodes, 100)
    cfg = RemappingConfig(interval=interval, history=5)
    return Remapper(part, policy_cls(cfg))


def after_phase(rem, comp_times):
    """Record a phase, then remap if the interval boundary is reached."""
    rem.record_phase(comp_times)
    return rem.attempt() if rem.due() else None


def phase_times(part, slow: dict[int, float], jitter=None):
    t = part.point_counts().astype(float) * 1e-5
    for i, a in slow.items():
        t[i] /= a
    return t


class TestRecording:
    def test_due_only_on_interval(self):
        rem = make_remapper(interval=3)
        for k in range(1, 7):
            rem.record_phase(phase_times(rem.partition, {}))
            assert rem.due() == (k % 3 == 0)

    def test_record_validates_length(self):
        rem = make_remapper()
        with pytest.raises(ValueError):
            rem.record_phase(np.ones(3))

    def test_predicted_times_shape(self):
        rem = make_remapper()
        rem.record_phase(phase_times(rem.partition, {}))
        assert rem.predicted_times().shape == (6,)


class TestAttempt:
    def test_empty_history_not_attempted(self):
        rem = make_remapper()
        decision = rem.attempt()
        assert not decision.attempted
        assert not decision.moved

    def test_balanced_no_move(self):
        rem = make_remapper()
        for _ in range(5):
            rem.record_phase(phase_times(rem.partition, {}))
        decision = rem.attempt()
        assert decision.attempted
        assert not decision.moved

    def test_slow_node_triggers_move(self):
        rem = make_remapper()
        for _ in range(5):
            rem.record_phase(phase_times(rem.partition, {2: 0.35}))
        decision = rem.attempt()
        assert decision.moved
        assert rem.partition.planes(2) < 10

    def test_decision_recorded(self):
        rem = make_remapper()
        for _ in range(5):
            rem.record_phase(phase_times(rem.partition, {2: 0.35}))
        rem.attempt()
        assert len(rem.decisions) == 1
        assert rem.total_planes_moved() == rem.decisions[0].planes_moved


class TestAfterPhase:
    def test_remaps_at_interval(self):
        rem = make_remapper(interval=4)
        outcomes = []
        for _ in range(8):
            outcomes.append(
                after_phase(rem, phase_times(rem.partition, {1: 0.35}))
            )
        assert [o is not None for o in outcomes] == [
            False, False, False, True, False, False, False, True,
        ]

    def test_conservation_over_many_remaps(self):
        rem = make_remapper(interval=2)
        for _ in range(20):
            after_phase(rem, phase_times(rem.partition, {1: 0.4, 4: 0.5}))
        assert rem.partition.total_planes == 60

    def test_noremap_policy_never_moves(self):
        rem = make_remapper(policy_cls=NoRemappingPolicy)
        for _ in range(10):
            after_phase(rem, phase_times(rem.partition, {1: 0.2}))
        assert rem.total_planes_moved() == 0


class TestConvergence:
    def test_filtered_reaches_low_makespan(self):
        """Long-run behaviour: with one slow node the filtered scheme
        should converge to a makespan near total/(P-1) (slow node shunned)."""
        rem = make_remapper(interval=5, nodes=10)
        for _ in range(200):
            after_phase(rem, phase_times(rem.partition, {4: 0.35}))
        counts = rem.partition.point_counts().astype(float)
        t = counts * 1e-5
        t[4] /= 0.35
        ideal = rem.partition.total_planes * 100 * 1e-5 / 9
        assert t.max() <= 1.35 * ideal

    def test_recovery_rebalances(self):
        """After the slow node recovers, load flows back toward even."""
        rem = make_remapper(interval=5, nodes=6)
        for _ in range(50):
            after_phase(rem, phase_times(rem.partition, {2: 0.35}))
        assert rem.partition.planes(2) <= 3
        for _ in range(300):
            after_phase(rem, phase_times(rem.partition, {}))
        counts = rem.partition.plane_counts()
        assert counts.max() - counts.min() <= 4
