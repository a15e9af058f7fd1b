"""Contended vs. merely-slow trace semantics."""

from repro.cluster.trace import AvailabilityTrace
from repro.cluster.workload import fixed_slow_traces


class TestPenaltyAvailability:
    def test_contended_trace_exposes_real_availability(self):
        tr = AvailabilityTrace(tail=0.35, contended=True)
        assert tr.penalty_availability(5.0) == 0.35

    def test_non_contended_trace_hides_slowness(self):
        tr = AvailabilityTrace(tail=0.35, contended=False)
        assert tr.penalty_availability(5.0) == 1.0
        assert tr.availability(5.0) == 0.35  # compute still slow

    def test_default_is_contended(self):
        assert AvailabilityTrace(tail=0.5).contended


class TestWorkloadSemantics:
    def test_background_jobs_are_contended(self):
        traces = fixed_slow_traces(3, [1])
        assert traces[1].contended

    def test_heterogeneous_not_contended(self):
        traces = [AvailabilityTrace(tail=s, contended=False) for s in (1.0, 0.5)]
        assert not traces[1].contended


class TestSimulatorEffect:
    def test_no_penalties_for_dedicated_slow_hardware(self):
        """A merely-slow node drags via computation only: the no-remap run
        on a heterogeneous cluster is *faster* than the same availability
        under a contended background job (which also delays messages)."""
        from repro.cluster.machine import paper_cluster
        from repro.cluster.simulator import simulate
        from repro.core import make_policy

        het = paper_cluster(
            [AvailabilityTrace(tail=s, contended=False) for s in [1.0] * 19 + [0.35]]
        )
        contended = paper_cluster(fixed_slow_traces(20, [19]))
        t_het = simulate(het, make_policy("no-remap"), 200).total_time
        t_cont = simulate(contended, make_policy("no-remap"), 200).total_time
        assert t_het < t_cont
