"""Memo idioms and the one LRU cache.

A query derives values that repeat across queries, and each is
remembered exactly once, where its cost is:

- reference tuples are resident: :class:`repro.core.reference.ReferenceTable`
  keeps every live tuple as interned column values (built by one scan on
  first use and kept current by its own writes), so verification needs no
  cross-query cache of fetched rows, no invalidation and no lock;
- verification work is memoized per query, by interned column value, in
  the query's :class:`repro.core.fms.PreparedInput`, and dropped with it;
- min-hash signatures are memoized by :class:`repro.core.minhash.MinHasher`
  itself (one hasher serves every thread of an engine), for reference
  tokens only: a query's dirty tokens are hashed without being stored;
- token weights need no memo in front of the §4.4.1 frequency caches —
  those *are* main-memory hash tables — and the one provider whose
  ``weight`` costs an index lookup
  (:class:`repro.eti.weights.EtiWeightProvider`) memoizes itself.

The per-token memos are :class:`BoundedMemo` dicts: read with a plain
``dict.get``, emptied when full.  PASS-JOIN and ApproxJoin get their
throughput by amortizing per-string preprocessing once, where it is paid,
not in layers.

:class:`LRUCache` is the bounded, counted cache for the one place that
needs eviction order: the serve layer's idempotency replay cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

from repro.analysis.debuglock import make_lock
from repro.obs.registry import MetricsRegistry

_MISSING = object()

#: Entries a :class:`BoundedMemo` holds before it is emptied.  The hot
#: token vocabulary is far smaller, so in practice a memo never cycles; the
#: cap only keeps a long-lived process (one hasher serves every worker of
#: ``repro serve``) from growing with every distinct dirty token it has seen.
#: It is the most a CPython dict holds in a 2^18-slot table (two thirds of
#: the slots); one entry more grows the table to 2^20 slots, ≈ 10 MiB more
#: peak RSS for a memo that full.
MEMO_CAPACITY = 174_762


class BoundedMemo(dict):
    """A dict memo that is simply emptied when it reaches ``capacity``.

    For values derived from input tokens (signatures, weights).  Reads
    are ordinary dict reads; every write goes through :meth:`store`.
    Memo policy never affects values.
    """

    def __init__(self, capacity: int = MEMO_CAPACITY) -> None:
        super().__init__()
        self.capacity = capacity

    def store(self, key: Hashable, value: Any) -> None:
        """Set ``key -> value``, emptying the memo first when it is full."""
        if len(self) >= self.capacity:
            self.clear()
        self[key] = value


class LRUCache:
    """A bounded, thread-safe LRU map with hit/miss/eviction accounting.

    The counts are the ``repro_cache_{hits,misses,evictions}_total``
    series of a :class:`~repro.obs.registry.MetricsRegistry` (a private
    one when none is given), labelled by cache name, so per-cache numbers
    and aggregate exposition read the same cells.  The counters are
    relaxed (lockless); the cache only increments them under its own lock
    or on the disabled path, where exact counts under races do not matter.

    ``capacity=0`` disables the cache: every lookup misses and nothing is
    stored.

    Thread safety: all map mutations happen under one lock.  Values are
    computed outside it, so two threads missing on the same key may both
    compute and store; cached values must therefore be immutable (they
    are: tuples, floats, frozen dataclasses).
    """

    def __init__(
        self,
        capacity: int,
        name: str = "",
        registry: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = capacity
        self.name = name
        if registry is None:
            registry = MetricsRegistry()
        labels = {"cache": name} if name else None
        self.hits = registry.counter("repro_cache_hits_total", labels, relaxed=True)
        self.misses = registry.counter("repro_cache_misses_total", labels, relaxed=True)
        self.evictions = registry.counter(
            "repro_cache_evictions_total", labels, relaxed=True
        )
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = make_lock("LRUCache._lock")

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, counting a hit or miss."""
        if not self.enabled:
            self.misses.inc()
            return default
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses.inc()
                return default
            self._data.move_to_end(key)
            self.hits.inc()
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``key -> value``, evicting the LRU entry when full."""
        if not self.enabled:
            return
        with self._lock:
            if key in self._data:
                self._data[key] = value
                self._data.move_to_end(key)
                return
            self._data[key] = value
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions.inc()

    def clear(self) -> None:
        """Drop every entry (counters are retained)."""
        with self._lock:
            self._data.clear()

