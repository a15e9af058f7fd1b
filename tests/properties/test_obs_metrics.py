"""Property tests for the repro.obs metrics registry.

- the histogram's harmonic mean agrees with the paper's load-index
  filter in :mod:`repro.core.prediction` on the same samples;
- counters stay monotonic and lose no increments under concurrent use
  from :mod:`repro.parallel.threads` rank threads.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prediction import harmonic_mean
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.parallel.threads import run_spmd

samples = st.lists(
    st.floats(min_value=1e-9, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=0,
    max_size=40,
)


def hist_of(values, name="h"):
    h = Histogram(name=name)
    for v in values:
        h.observe(v)
    return h


class TestHarmonicMeanConsistency:
    @given(values=samples.filter(lambda v: len(v) > 0))
    @settings(max_examples=100, deadline=None)
    def test_matches_prediction_filter(self, values):
        h = hist_of(values)
        assert h.harmonic_mean() == pytest.approx(
            harmonic_mean(values), rel=1e-12
        )

    @given(values=samples.filter(lambda v: len(v) > 0))
    @settings(max_examples=50, deadline=None)
    def test_dominated_by_small_samples(self, values):
        """The defining spike-resistance property: one huge spike shifts
        the harmonic mean by no more than it shifts the arithmetic mean
        (this is why the paper's filter ignores transient load spikes)."""
        h = hist_of(values)
        spiked = hist_of(values + [1e7])
        hm_shift = spiked.harmonic_mean() - h.harmonic_mean()
        am_shift = spiked.mean - h.mean
        assert hm_shift <= am_shift + 1e-9
        assert spiked.harmonic_mean() <= spiked.mean + 1e-9

    def test_empty_histogram_is_zero(self):
        assert Histogram(name="h").harmonic_mean() == 0.0


class TestCounterConcurrency:
    def test_monotonic_under_rank_threads(self):
        """4 rank threads hammer one shared counter while the main thread
        samples it: no lost increments, never a decrease."""
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        increments, ranks = 500, 4
        observed: list[float] = []

        def rank_main(comm):
            for _ in range(increments):
                counter.add(2.0)
            return comm.rank

        import threading

        stop = threading.Event()

        def sampler():
            while not stop.is_set():
                observed.append(counter.value)
                time.sleep(0.0005)

        t = threading.Thread(target=sampler, daemon=True)
        t.start()
        try:
            run_spmd(ranks, rank_main, timeout=30.0)
        finally:
            stop.set()
            t.join(timeout=5.0)
        observed.append(counter.value)

        assert counter.value == ranks * increments * 2.0
        assert observed == sorted(observed), "counter went backwards"

    def test_negative_increment_rejected(self):
        c = Counter("n")
        with pytest.raises(ValueError):
            c.add(-1.0)

    def test_registry_kind_conflicts_raise(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        assert reg.counter("x") is reg.counter("x")
