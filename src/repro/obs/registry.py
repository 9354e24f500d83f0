"""Thread-safe metrics registry: counters, gauges, log-bucket histograms.

The registry is the single accumulation point for every counter the
engine used to keep in scattered per-module structs (cache hit/miss
tallies, kernel cell counts, serve shed reasons).  Instruments are
keyed by ``(name, sorted label pairs)`` so per-query views and fleet
aggregates read the same cells and can never disagree.

Design constraints, in order:

- **Determinism.**  No instrument reads a clock; histogram bucket edges
  are a pure function of ``(start, factor, count)``; snapshots carry no
  timestamps.  The module sits inside the reprolint determinism rule's
  scope (``repro/obs/``).
- **Mergeability.**  :class:`RegistrySnapshot` values add pointwise
  (:func:`merge_snapshots`), so separate registries (a server's, its
  engine's, the process-global one) aggregate into one view without a
  shared lock on the hot path.
- **Bounded labels.**  Each metric name admits at most
  ``label_cardinality`` distinct label sets; overflow routes to a
  sentinel series instead of growing without bound.
- **Hot-path cost.**  :class:`RelaxedCounter` is lockless and may
  undercount under concurrent increments — the same contract the kernel
  counters always had.  Strict instruments take a lock on every access,
  including reads.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Union

from repro.analysis.debuglock import make_lock

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_EDGES",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "LabelPairs",
    "MetricsRegistry",
    "OVERFLOW_LABELS",
    "RegistrySnapshot",
    "RelaxedCounter",
    "default_registry",
    "log_bucket_edges",
    "merge_snapshots",
]

LabelPairs = tuple[tuple[str, str], ...]
"""Canonical label form: ``(key, value)`` pairs sorted by key."""

OVERFLOW_LABELS: LabelPairs = (("overflow", "cardinality"),)
"""Sentinel label set that absorbs series past the cardinality cap."""


def log_bucket_edges(
    start: float, factor: float, count: int
) -> tuple[float, ...]:
    """Deterministic log-spaced bucket upper bounds.

    ``edges[i] = start * factor**i`` — a pure function of its inputs,
    so two processes configured alike produce bitwise-identical edges
    and their histogram snapshots merge without translation.
    """
    if start <= 0:
        raise ValueError(f"start must be positive, got {start}")
    if factor <= 1.0:
        raise ValueError(f"factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return tuple(start * factor**i for i in range(count))


DEFAULT_LATENCY_EDGES = log_bucket_edges(1e-4, 2.0, 18)
"""0.1 ms to ~13 s in doubling buckets — covers the serve latency range."""


class _Switch:
    """A shared on/off flag instruments consult before recording.

    Deliberately lock-free: toggling races with in-flight increments,
    and either order is acceptable (the toggle is a coarse runtime
    control, not a synchronization point).
    """

    __slots__ = ("on",)

    def __init__(self, on: bool = True) -> None:
        self.on = on


class Counter:
    """A strict monotonic counter: locked on increment *and* read."""

    def __init__(self, switch: _Switch) -> None:
        self._switch = switch
        self._lock = make_lock("Counter._lock")
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        if not self._switch.on:
            return
        with self._lock:
            self._value += amount

    def value(self) -> int:
        """The current count."""
        with self._lock:
            return self._value

    def reset(self) -> None:
        """Zero the counter (tests and per-phase benchmarks only)."""
        with self._lock:
            self._value = 0


class RelaxedCounter:
    """A lockless counter for hot paths; may undercount under races.

    Mirrors the long-standing ``KernelCounters`` contract: increments
    from concurrent threads can interleave and lose updates, which is
    acceptable for perf telemetry and rules out any lock cost in the
    inner verification loops.
    """

    __slots__ = ("_switch", "_value")

    def __init__(self, switch: _Switch) -> None:
        self._switch = switch
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` without locking (best-effort under threads)."""
        if self._switch.on:
            self._value += amount

    def value(self) -> int:
        """The current (best-effort) count."""
        return self._value

    def reset(self) -> None:
        """Zero the counter (tests and per-phase benchmarks only)."""
        self._value = 0


class Gauge:
    """A strict point-in-time value; ``set`` overwrites, ``add`` adjusts."""

    def __init__(self, switch: _Switch) -> None:
        self._switch = switch
        self._lock = make_lock("Gauge._lock")
        self._value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        if not self._switch.on:
            return
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta`` (either sign)."""
        if not self._switch.on:
            return
        with self._lock:
            self._value += delta

    def value(self) -> float:
        """The current value."""
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with inclusive ``le`` upper bounds.

    ``counts`` has ``len(edges) + 1`` cells; the last is the +Inf tail.
    An observation lands in the first bucket whose edge is >= the
    value (``bisect_left``), matching Prometheus ``le`` semantics so
    the exposition layer renders cumulative buckets directly.
    """

    def __init__(self, switch: _Switch, edges: tuple[float, ...]) -> None:
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram edges must be strictly increasing, got {edges}"
            )
        self._switch = switch
        self._lock = make_lock("Histogram._lock")
        self.edges = edges
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        if not self._switch.on:
            return
        index = bisect_left(self.edges, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> "HistogramSnapshot":
        """A consistent point-in-time copy."""
        with self._lock:
            return HistogramSnapshot(
                edges=self.edges,
                counts=tuple(self._counts),
                sum=self._sum,
                count=self._count,
            )

    def reset(self) -> None:
        """Zero the histogram (tests and per-phase benchmarks only)."""
        with self._lock:
            self._counts = [0] * (len(self.edges) + 1)
            self._sum = 0.0
            self._count = 0


@dataclass(frozen=True, eq=False)
class HistogramSnapshot:
    """Immutable histogram state: edges, per-bucket counts, sum, count."""

    edges: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Pointwise sum; edges must match exactly."""
        if self.edges != other.edges:
            raise ValueError(
                "cannot merge histograms with different bucket edges: "
                f"{self.edges} vs {other.edges}"
            )
        return HistogramSnapshot(
            edges=self.edges,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            sum=self.sum + other.sum,
            count=self.count + other.count,
        )

    def quantile(self, q: float) -> float:
        """Bucket-resolved quantile estimate (upper edge of the bucket).

        Returns the last finite edge for observations in the +Inf tail
        and ``0.0`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if index < len(self.edges):
                    return self.edges[index]
                return self.edges[-1]
        return self.edges[-1]


SeriesKey = tuple[str, LabelPairs]
"""Snapshot dictionary key: ``(metric name, sorted label pairs)``."""


@dataclass(frozen=True, eq=False)
class RegistrySnapshot:
    """A mergeable point-in-time copy of every instrument in a registry."""

    counters: dict[SeriesKey, int]
    gauges: dict[SeriesKey, float]
    histograms: dict[SeriesKey, HistogramSnapshot]

    def merge(self, other: "RegistrySnapshot") -> "RegistrySnapshot":
        """Pointwise combination of two snapshots.

        Counters and histogram buckets add; gauges take the pointwise
        maximum, because the same point-in-time value (a WAL tail
        length, a queue depth) may be sampled into several merged
        registries and summing copies would multiply it.  Both rules
        are associative, so any fold order yields the same totals;
        float histogram sums are subject to addition-order rounding
        like any float accumulation.
        """
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        gauges = dict(self.gauges)
        for key, gauge_value in other.gauges.items():
            mine = gauges.get(key)
            gauges[key] = (
                gauge_value if mine is None else max(mine, gauge_value)
            )
        histograms = dict(self.histograms)
        for key, hist in other.histograms.items():
            mine = histograms.get(key)
            histograms[key] = hist if mine is None else mine.merge(hist)
        return RegistrySnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )


def merge_snapshots(
    snapshots: Iterable[RegistrySnapshot],
) -> RegistrySnapshot:
    """Fold any number of snapshots into one (empty input -> empty)."""
    merged = RegistrySnapshot(counters={}, gauges={}, histograms={})
    for snap in snapshots:
        merged = merged.merge(snap)
    return merged


_Instrument = Union[Counter, RelaxedCounter, Gauge, Histogram]

CollectorFn = Callable[["MetricsRegistry"], None]
"""A callback that refreshes gauges just before a snapshot is taken."""


class MetricsRegistry:
    """Get-or-create instrument store keyed by ``(name, labels)``.

    Each distinct metric name maps to one instrument kind; asking for
    the same name with a different kind (or different histogram edges)
    raises ``ValueError`` — silent kind drift is how aggregate and
    per-query numbers come to disagree.

    Label sets per name are capped at ``label_cardinality``; requests
    past the cap all share the :data:`OVERFLOW_LABELS` sentinel series
    and bump the internal ``repro_labels_overflow_total`` counter, so a
    label leak (e.g. a request id smuggled into a label) degrades to a
    visible lump instead of unbounded memory.
    """

    def __init__(
        self, *, enabled: bool = True, label_cardinality: int = 64
    ) -> None:
        if label_cardinality < 1:
            raise ValueError(
                f"label_cardinality must be >= 1, got {label_cardinality}"
            )
        self._switch = _Switch(enabled)
        self._lock = make_lock("MetricsRegistry._lock")
        self._label_cardinality = label_cardinality
        self._instruments: dict[SeriesKey, _Instrument] = {}
        self._kinds: dict[str, str] = {}
        self._edges: dict[str, tuple[float, ...]] = {}
        self._series_per_name: dict[str, int] = {}
        self._collectors: list[CollectorFn] = []
        self._overflow = Counter(self._switch)

    # -- enablement ----------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether instruments currently record."""
        return self._switch.on

    def set_enabled(self, enabled: bool) -> None:
        """Toggle recording at runtime (existing handles stay valid)."""
        self._switch.on = enabled

    # -- instrument factories ------------------------------------------

    def counter(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        *,
        relaxed: bool = False,
    ) -> Counter | RelaxedCounter:
        """Get or create a counter series.

        ``relaxed=True`` yields a lockless counter that may undercount
        under concurrent increments; the strictness choice is fixed by
        the first caller for a given name.
        """
        kind = "relaxed_counter" if relaxed else "counter"

        def build() -> _Instrument:
            if relaxed:
                return RelaxedCounter(self._switch)
            return Counter(self._switch)

        instrument = self._get_or_create(name, labels, kind, build)
        assert isinstance(instrument, (Counter, RelaxedCounter))
        return instrument

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        """Get or create a gauge series."""
        instrument = self._get_or_create(
            name, labels, "gauge", lambda: Gauge(self._switch)
        )
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        *,
        edges: tuple[float, ...] = DEFAULT_LATENCY_EDGES,
    ) -> Histogram:
        """Get or create a histogram series with the given bucket edges."""
        instrument = self._get_or_create(
            name, labels, "histogram", lambda: Histogram(self._switch, edges),
            edges=edges,
        )
        assert isinstance(instrument, Histogram)
        return instrument

    def _get_or_create(
        self,
        name: str,
        labels: dict[str, str] | None,
        kind: str,
        build: Callable[[], _Instrument],
        edges: tuple[float, ...] | None = None,
    ) -> _Instrument:
        """Look up or register one series, enforcing kind and cardinality."""
        if not name:
            raise ValueError("metric name must be non-empty")
        pairs: LabelPairs = (
            tuple(sorted(labels.items())) if labels else ()
        )
        overflowed = False
        with self._lock:
            known_kind = self._kinds.get(name)
            if known_kind is not None and known_kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {known_kind}, requested {kind}"
                )
            if edges is not None:
                known_edges = self._edges.get(name)
                if known_edges is not None and known_edges != edges:
                    raise ValueError(
                        f"histogram {name!r} already registered with edges "
                        f"{known_edges}, requested {edges}"
                    )
                self._edges[name] = edges
            key = (name, pairs)
            instrument = self._instruments.get(key)
            if instrument is None and pairs != OVERFLOW_LABELS:
                if self._series_per_name.get(name, 0) >= self._label_cardinality:
                    overflowed = True
                    key = (name, OVERFLOW_LABELS)
                    instrument = self._instruments.get(key)
            if instrument is None:
                instrument = build()
                self._instruments[key] = instrument
                self._kinds[name] = kind
                self._series_per_name[name] = (
                    self._series_per_name.get(name, 0) + 1
                )
        if overflowed:
            # Outside the registry lock: the overflow counter has its
            # own lock and must not nest under the registry's.
            self._overflow.inc()
        return instrument

    # -- collectors ----------------------------------------------------

    def register_collector(self, collector: CollectorFn) -> None:
        """Add a callback run (outside the lock) before each snapshot."""
        with self._lock:
            self._collectors.append(collector)

    def unregister_collector(self, collector: CollectorFn) -> None:
        """Remove a previously registered collector (missing is a no-op)."""
        with self._lock:
            try:
                self._collectors.remove(collector)
            except ValueError:
                pass

    # -- reading -------------------------------------------------------

    def snapshot(self) -> RegistrySnapshot:
        """Run collectors, then copy every instrument's current state."""
        with self._lock:
            collectors = list(self._collectors)
        # Collectors set gauges through normal instrument calls; running
        # them under the registry lock would deadlock on get-or-create.
        for collector in collectors:
            collector(self)
        with self._lock:
            items = list(self._instruments.items())
        counters: dict[SeriesKey, int] = {}
        gauges: dict[SeriesKey, float] = {}
        histograms: dict[SeriesKey, HistogramSnapshot] = {}
        for key, instrument in items:
            if isinstance(instrument, (Counter, RelaxedCounter)):
                counters[key] = instrument.value()
            elif isinstance(instrument, Gauge):
                gauges[key] = instrument.value()
            else:
                histograms[key] = instrument.snapshot()
        overflow = self._overflow.value()
        if overflow:
            counters[("repro_labels_overflow_total", ())] = overflow
        return RegistrySnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

    def counter_values(self, name: str) -> dict[LabelPairs, int]:
        """All series of one counter name as ``{label pairs: value}``."""
        with self._lock:
            items = [
                (key[1], instrument)
                for key, instrument in self._instruments.items()
                if key[0] == name
                and isinstance(instrument, (Counter, RelaxedCounter))
            ]
        return {pairs: instrument.value() for pairs, instrument in items}


_DEFAULT: MetricsRegistry | None = None
_DEFAULT_LOCK = make_lock("registry._DEFAULT_LOCK")


def default_registry() -> MetricsRegistry:
    """The process-global registry (kernel and FMS counters live here).

    Honors ``REPRO_METRICS=0`` at first touch: the registry is created
    disabled, so module-level hot-path counters cost one attribute read
    per increment and nothing else.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            enabled = os.environ.get("REPRO_METRICS", "1") != "0"
            _DEFAULT = MetricsRegistry(enabled=enabled)
        return _DEFAULT
