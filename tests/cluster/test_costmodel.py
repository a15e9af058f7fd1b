import pytest

from repro.cluster.costmodel import PAPER_COST_MODEL, PhaseCostModel


class TestCalibration:
    def test_cost_per_point_from_paper(self):
        """43.56 h sequential / 20 000 phases / 1.6M points ~ 4.9 us."""
        seq_seconds = 43.56 * 3600
        derived = seq_seconds / (20_000 * 400 * 200 * 20)
        assert PAPER_COST_MODEL.cost_per_point == pytest.approx(derived, rel=0.01)

    def test_per_node_phase_work(self):
        # 20 planes of 4000 points at 4.9 us ~ 0.392 s (matches 251 s/600
        # phases minus communication).
        work = PAPER_COST_MODEL.compute_work(80_000)
        assert work == pytest.approx(0.392, rel=0.01)

    def test_fractions_sum_to_one(self):
        assert sum(PAPER_COST_MODEL.compute_fractions) == pytest.approx(1.0)


class TestValidation:
    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            PhaseCostModel(compute_fractions=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            PhaseCostModel(compute_fractions=(1.2, -0.1, -0.1))

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            PhaseCostModel(bandwidth=0.0)


class TestCosts:
    def test_wire_time(self):
        m = PhaseCostModel(latency=1e-3, bandwidth=1e6)
        assert m.wire_time(1e6) == pytest.approx(1.001)

    def test_sched_penalty_idle_zero(self):
        assert PAPER_COST_MODEL.sched_penalty(1.0, 1.0) == 0.0

    def test_sched_penalty_scales_with_busy(self):
        m = PAPER_COST_MODEL
        assert m.sched_penalty(0.35, 1.0) > m.sched_penalty(0.7, 1.0)

    def test_sched_penalty_scales_with_load(self):
        m = PAPER_COST_MODEL
        full = m.sched_penalty(0.35, 1.0)
        light = m.sched_penalty(0.35, 0.05)
        assert light < 0.1 * full

    def test_sched_penalty_load_capped(self):
        m = PAPER_COST_MODEL
        assert m.sched_penalty(0.35, 5.0) == m.sched_penalty(0.35, 1.0)

    def test_edge_cost_sums_parts(self):
        m = PhaseCostModel(
            latency=0.0, per_message_overhead=0.01, bandwidth=1e6, sched_delay=0.1
        )
        cost = m.edge_cost(1e6, 0.5, 1.0, 1.0, 1.0)
        assert cost == pytest.approx(0.01 + 1.0 + 0.1 * 0.5)

    def test_collective_cost_grows_with_busy_nodes(self):
        m = PAPER_COST_MODEL
        idle = m.collective_cost([1.0] * 20)
        busy = m.collective_cost([1.0] * 15 + [0.35] * 5)
        assert busy > idle
        assert idle == pytest.approx(20 * m.per_message_overhead)

    def test_migration_cost_zero_planes(self):
        assert PAPER_COST_MODEL.migration_cost(0, 1.0, 1.0, 1.0, 1.0) == 0.0

    def test_migration_cost_scales_with_planes(self):
        m = PAPER_COST_MODEL
        one = m.migration_cost(1, 1.0, 1.0, 1.0, 1.0)
        ten = m.migration_cost(10, 1.0, 1.0, 1.0, 1.0)
        assert ten > 5 * one


class TestDedicatedPhaseTime:
    def test_600_phase_dedicated_total(self):
        """0.392 s compute + 2 exchanges ~ 0.419 s/phase -> ~251 s."""
        m = PAPER_COST_MODEL
        per_phase = (
            m.compute_work(80_000)
            + m.edge_cost(m.exchange1_bytes, 1, 1, 1, 1)
            + m.edge_cost(m.exchange2_bytes, 1, 1, 1, 1)
        )
        assert 600 * per_phase == pytest.approx(251.0, rel=0.02)
