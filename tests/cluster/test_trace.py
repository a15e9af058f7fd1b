import pytest

from repro.cluster.trace import AvailabilityTrace, TraceCursor


class TestAvailabilityTrace:
    def test_constant_tail(self):
        tr = AvailabilityTrace(tail=0.5)
        assert tr.availability(0.0) == 0.5
        assert tr.availability(1e6) == 0.5

    def test_segments(self):
        tr = AvailabilityTrace([(10.0, 0.35), (20.0, 1.0)], tail=0.8)
        assert tr.availability(5.0) == 0.35
        assert tr.availability(15.0) == 1.0
        assert tr.availability(25.0) == 0.8

    def test_boundary_belongs_to_next_segment(self):
        tr = AvailabilityTrace([(10.0, 0.35)], tail=1.0)
        assert tr.availability(10.0) == 1.0

    def test_nonincreasing_segments_rejected(self):
        with pytest.raises(ValueError):
            AvailabilityTrace([(10.0, 0.5), (10.0, 1.0)])

    def test_invalid_availability(self):
        with pytest.raises(ValueError):
            AvailabilityTrace(tail=0.0)
        with pytest.raises(ValueError):
            AvailabilityTrace(tail=1.5)
        with pytest.raises(ValueError):
            AvailabilityTrace([(5.0, -0.1)])

    def test_extender_pulled_lazily(self):
        def gen():
            t = 0.0
            while True:
                t += 1.0
                yield (t, 0.5 if int(t) % 2 else 1.0)

        tr = AvailabilityTrace(extender=gen())
        assert tr.availability(0.5) == 0.5
        assert tr.availability(10.2) in (0.5, 1.0)

    def test_exhausted_extender_falls_to_tail(self):
        def gen():
            yield (1.0, 0.5)

        tr = AvailabilityTrace(extender=gen(), tail=0.9)
        assert tr.availability(0.5) == 0.5
        assert tr.availability(2.0) == 0.9

    def test_bad_extender_rejected(self):
        def gen():
            yield (1.0, 0.5)
            yield (0.5, 0.5)

        tr = AvailabilityTrace(extender=gen())
        with pytest.raises(ValueError, match="non-increasing"):
            tr.availability(2.0)


class TestAdvance:
    def test_full_speed(self):
        tr = AvailabilityTrace(tail=1.0)
        assert tr.advance(3.0, 2.0) == pytest.approx(5.0)

    def test_half_speed(self):
        tr = AvailabilityTrace(tail=0.5)
        assert tr.advance(0.0, 2.0) == pytest.approx(4.0)

    def test_zero_work(self):
        tr = AvailabilityTrace(tail=0.5)
        assert tr.advance(7.0, 0.0) == 7.0

    def test_across_segment_boundary(self):
        # 0.5 speed for 10s, then full speed: 6 work units from t=0
        # consume 5 in the first 10 s and 1 more second after.
        tr = AvailabilityTrace([(10.0, 0.5)], tail=1.0)
        assert tr.advance(0.0, 6.0) == pytest.approx(11.0)

    def test_exactly_fills_segment(self):
        tr = AvailabilityTrace([(10.0, 0.5)], tail=1.0)
        assert tr.advance(0.0, 5.0) == pytest.approx(10.0)

    def test_negative_inputs_rejected(self):
        tr = AvailabilityTrace()
        with pytest.raises(ValueError):
            tr.advance(-1.0, 1.0)
        with pytest.raises(ValueError):
            tr.advance(0.0, -1.0)


class TestTraceCursor:
    def test_monotone_advances_match_trace(self):
        tr = AvailabilityTrace([(5.0, 0.5), (10.0, 1.0), (15.0, 0.25)], tail=1.0)
        cur = TraceCursor(tr)
        t = 0.0
        for w in (1.0, 2.0, 3.0, 4.0):
            expected = tr.advance(t, w)
            t2 = cur.advance(t, w)
            assert t2 == pytest.approx(expected)
            t = t2

    def test_availability_queries(self):
        tr = AvailabilityTrace([(5.0, 0.5)], tail=1.0)
        cur = TraceCursor(tr)
        assert cur.availability(1.0) == 0.5
        assert cur.availability(6.0) == 1.0

    def test_backward_query_allowed(self):
        tr = AvailabilityTrace([(5.0, 0.5), (10.0, 0.8)], tail=1.0)
        cur = TraceCursor(tr)
        assert cur.availability(7.0) == 0.8
        assert cur.availability(1.0) == 0.5  # backward seek
        assert cur.availability(12.0) == 1.0

    def test_integration_over_duty_cycle(self):
        """Average rate over one full period is (1-d) + d * sigma."""
        from repro.cluster.workload import duty_cycle_trace

        tr = duty_cycle_trace(0.6, period=10.0, busy_availability=0.35)
        cur = TraceCursor(tr)
        work_per_period = 0.6 * 10 * 0.35 + 0.4 * 10
        t_end = cur.advance(0.0, work_per_period * 5)
        assert t_end == pytest.approx(50.0)
