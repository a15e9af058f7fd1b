"""The geometry cache: what a scenario derives from its wall shape is
computed once per geometry signature and geometry, shared read-only,
keyed by value and bounded in bytes."""

from collections import OrderedDict

import numpy as np
import pytest

import repro.lbm.geometry as geometry_module
from repro.lbm.geometry import ChannelGeometry
from repro.scenarios import HomogeneousScenario, PatternedScenario, RoughScenario
from repro.lbm.geometry import geometry_cached

GEO = ChannelGeometry(shape=(12, 20))


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    monkeypatch.setattr(geometry_module, "_geometry_cache", OrderedDict())
    monkeypatch.setattr(geometry_module, "_geometry_cache_bytes", 0)


def rough(**changes) -> RoughScenario:
    params = dict(amplitude=0.05, decay_length=2.5, rms=1.0, max_height=2, seed=3)
    params.update(changes)
    return RoughScenario(**params)


def test_cached_arrays_are_read_only():
    scenario = rough()
    for array in (scenario.solid_mask(GEO), *scenario._heights(GEO).values()):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1
    # What a caller owns stays writable.
    force = scenario.wall_accel(GEO)
    force[0, 0, 0] = 1.0


def test_one_entry_per_signature_not_per_instance():
    a, b = rough(amplitude=0.02), rough(amplitude=0.09, decay_length=3.0)
    assert a.solid_mask(GEO) is b.solid_mask(GEO)
    assert a._heights(GEO) is b._heights(GEO)
    other_draw = rough(seed=4)
    assert other_draw.solid_mask(GEO) is not a.solid_mask(GEO)
    assert not np.array_equal(other_draw.solid_mask(GEO), a.solid_mask(GEO))
    # Flat-walled scenarios share the geometry's own mask.
    flat = HomogeneousScenario().solid_mask(GEO)
    assert PatternedScenario().solid_mask(GEO) is flat
    assert np.array_equal(flat, GEO.solid_mask())
    assert rough().solid_mask(ChannelGeometry(shape=(13, 20))).shape == (13, 20)


def test_cached_fields_equal_the_uncached_arithmetic():
    scenario = rough(amplitude=0.07)
    heights = scenario._draw_heights(GEO)
    for key, h in scenario._heights(GEO).items():
        assert np.array_equal(h, heights[key])
    assert np.array_equal(scenario.solid_mask(GEO), scenario._build_solid_mask(GEO))
    first = scenario.wall_accel(GEO)
    again = scenario.wall_accel(GEO)  # from the cached decay profiles
    assert first is not again and np.array_equal(first, again)


def test_bounded_in_bytes(monkeypatch):
    monkeypatch.setattr(geometry_module, "GEOMETRY_CACHE_BYTES", 1000)
    builds = []

    def build(n):
        def make():
            builds.append(n)
            return np.zeros(n, dtype=np.uint8)

        return make

    first = geometry_cached(("test", 1), build(600))
    assert geometry_cached(("test", 1), build(600)) is first
    geometry_cached(("test", 2), build(300))
    geometry_cached(("test", 3), build(300))  # 1200 bytes: the oldest goes
    assert builds == [600, 300, 300]
    assert geometry_module._geometry_cache_bytes == 600
    assert list(geometry_module._geometry_cache) == [("test", 2), ("test", 3)]
    geometry_cached(("test", 4), build(5000))  # never kept
    geometry_cached(("test", 4), build(5000))
    assert builds[-2:] == [5000, 5000]
    assert ("test", 4) not in geometry_module._geometry_cache


def test_threads_keep_the_byte_count_and_one_value_per_key(monkeypatch):
    """More threads than cores racing on a cache that keeps evicting: the
    byte tally must equal what is held, and every caller of a key gets
    the value that key maps to."""
    import sys
    import threading

    monkeypatch.setattr(geometry_module, "GEOMETRY_CACHE_BYTES", 4096)
    errors: list[str] = []

    def work(seed: int) -> None:
        for i in range(300):
            n = (seed * 7 + i) % 24
            value = geometry_cached(("race", n), lambda: np.full(512, n, np.uint8))
            if value[0] != n or value.flags.writeable:
                errors.append(f"key {n} got {value[0]}")

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    held = sum(nbytes for _, nbytes in geometry_module._geometry_cache.values())
    assert geometry_module._geometry_cache_bytes == held <= 4096
