"""The matcher's one cross-query cache, and the memo idiom for the rest.

A query derives three kinds of value that repeat across queries, and each
is remembered exactly once, where its cost is:

- tokenized reference tuples (``tid -> (TupleTokens, values)``) save a
  B+-tree fetch, a row decode and a tokenization per candidate — the one
  memo that measurably pays, so it is the one real cache:
  :class:`MatcherCaches` holds it as a bounded, counted :class:`LRUCache`;
- min-hash signatures are memoized by :class:`repro.core.minhash.MinHasher`
  itself (one hasher serves every thread of an engine);
- token weights need no memo in front of the §4.4.1 frequency caches —
  those *are* main-memory hash tables — and the one provider whose
  ``weight`` costs an index lookup
  (:class:`repro.eti.weights.EtiWeightProvider`) memoizes itself.

The per-token memos (and the edit-distance memos of
:mod:`repro.core.strings`) are :class:`BoundedMemo` dicts: read with a
plain ``dict.get``, emptied when full.  PASS-JOIN and ApproxJoin get their
throughput by amortizing per-string preprocessing once, where it is paid,
not in layers.

The reference cache is keyed on content fixed for one matcher's reference
relation.  Do **not** share one :class:`MatcherCaches` between matchers
over different relations; give each its own bundle (the default).  One
matcher, and so one bundle, serves every worker thread of a server:
each query counts its own hits and misses.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterable

from repro.analysis.debuglock import make_lock
from repro.obs.registry import MetricsRegistry

_MISSING = object()

# Sized for the paper's evaluation scale (a couple of million reference
# tuples, batches of thousands of dirty inputs) while staying bounded:
# entries are tokenized tuples, a few tens of MB at the cap.
DEFAULT_REFERENCE_CAPACITY = 65_536

#: Entries a :class:`BoundedMemo` holds before it is emptied.  The hot
#: token vocabulary is far smaller, so in practice a memo never cycles; the
#: cap only keeps a long-lived process (one hasher serves every worker of
#: ``repro serve``) from growing with every distinct dirty token it has seen.
MEMO_CAPACITY = 200_000


class BoundedMemo(dict):
    """A dict memo that is simply emptied when it reaches ``capacity``.

    For values derived from input tokens (signatures, weights, edit
    distances).  Reads are ordinary dict reads; every write goes through
    :meth:`store`.  Memo policy never affects values.
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
    stored, which is how the "seed" (uncached) behaviour is reproduced for
    parity tests and benchmarks.

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

    def discard(self, keys: Iterable[Hashable]) -> None:
        """Drop the entries for ``keys`` that are present (counters are retained)."""
        with self._lock:
            pop = self._data.pop
            for key in keys:
                pop(key, None)

    def clear(self) -> None:
        """Drop every entry (counters are retained)."""
        with self._lock:
            self._data.clear()


class MatcherCaches:
    """The cross-query cache one :class:`FuzzyMatcher` uses, and its registry.

    ``reference_tokens`` maps ``tid -> (TupleTokens, values)`` for fetched
    reference tuples, shared by candidate verification and the naive scan.

    Every bundle owns (or is handed) one
    :class:`~repro.obs.registry.MetricsRegistry`; the cache writes its
    counters there, labelled by cache name, and the matcher publishes its
    per-query metrics to the same registry.
    """

    def __init__(
        self,
        reference_capacity: int = DEFAULT_REFERENCE_CAPACITY,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.reference_tokens = LRUCache(
            reference_capacity, "reference_tokens", self.registry
        )

    @classmethod
    def disabled(cls) -> "MatcherCaches":
        """A bundle with the cache off — the seed (uncached) behaviour."""
        return cls(0)

    @property
    def enabled(self) -> bool:
        return self.reference_tokens.enabled

    def counters(self) -> dict[str, dict[str, int | float]]:
        """Hit/miss/eviction counters, hit rate and entry count, by cache name."""
        cache = self.reference_tokens
        hits, misses = cache.hits.value(), cache.misses.value()
        lookups = hits + misses
        return {
            cache.name: {
                "hits": hits,
                "misses": misses,
                "evictions": cache.evictions.value(),
                "hit_rate": hits / lookups if lookups else 0.0,
                "entries": len(cache),
            }
        }

    def clear(self) -> None:
        """Drop every cached entry."""
        self.reference_tokens.clear()
