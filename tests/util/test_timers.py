import time

import pytest

from repro.util.timers import Timer


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.02)
        assert 0.015 < t.elapsed < 0.5

    def test_laps_accumulate(self):
        t = Timer()
        for _ in range(3):
            with t:
                time.sleep(0.005)
        assert t.laps == 3
        assert t.total >= 3 * 0.004
        assert t.mean == pytest.approx(t.total / 3)

    def test_mean_before_laps(self):
        assert Timer().mean == 0.0

    def test_exit_without_enter(self):
        with pytest.raises(RuntimeError):
            Timer().__exit__(None, None, None)

    def test_raising_lap_is_discarded(self):
        """A lap aborted by an exception must not pollute elapsed/total/mean,
        and the timer must stay reusable afterwards."""
        t = Timer()
        with t:
            time.sleep(0.005)
        elapsed, total, laps = t.elapsed, t.total, t.laps

        with pytest.raises(ValueError):
            with t:
                time.sleep(0.005)
                raise ValueError("abort lap")

        assert (t.elapsed, t.total, t.laps) == (elapsed, total, laps)
        assert t.mean == pytest.approx(total / laps)

        with t:
            time.sleep(0.005)
        assert t.laps == laps + 1
        assert t.total > total

    def test_exception_does_not_leave_timer_started(self):
        t = Timer()
        with pytest.raises(ValueError):
            with t:
                raise ValueError
        # A leaked _start would make this second __exit__ "succeed" with a
        # bogus lap instead of raising.
        with pytest.raises(RuntimeError):
            t.__exit__(None, None, None)
