"""Content-addressed result cache.

Completed :class:`~repro.api.RunResult` objects are stored under the
spec fingerprint (:func:`repro.api.spec_fingerprint`) — a SHA-256 over
the canonical physics document, the kernel backend and the phase
target.  Two submissions whose specs differ only in execution knobs
(rank count, transport, remapping policy, observability) address the
same entry, because the transports and rank counts are bit-identical
by contract: the cached populations *are* the answer either spec would
have produced.  The backend is not such a knob — ``fused`` is close to
``reference``, not the same bits — so each backend has its own entry.

The cache is bounded (``capacity`` entries, least-recently-used
eviction) and instrumented: ``serve.cache.hit`` / ``serve.cache.miss`` /
``serve.cache.evict`` counters plus a ``serve.cache.size`` gauge on the
observer the scheduler shares with it.  Capacity 0 disables caching
entirely (every lookup misses, nothing is stored) — the scheduler then
still deduplicates *in-flight* work, it just re-executes repeats that
arrive after completion.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.obs.observer import NULL_OBSERVER, ObserverLike, resolve_observer


class ResultCache:
    """LRU map ``fingerprint -> RunResult`` with hit/miss accounting."""

    def __init__(
        self,
        capacity: int = 1024,
        *,
        observer: ObserverLike = NULL_OBSERVER,
    ):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._obs = resolve_observer(observer)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Any | None:
        """The cached result for *key*, or ``None`` — counting the
        lookup either way and refreshing recency on a hit."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            if self._obs.enabled:
                self._obs.counter("serve.cache.miss").add()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if self._obs.enabled:
            self._obs.counter("serve.cache.hit").add()
        return entry

    def put(self, key: str, result: Any) -> None:
        """Store *result* under *key*, evicting the least recently used
        entry when full (no-op at capacity 0)."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = result
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            if self._obs.enabled:
                self._obs.counter("serve.cache.evict").add()
        if self._obs.enabled:
            self._obs.gauge("serve.cache.size").set(len(self._entries))

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when none)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
