"""Observability subsystem: metrics registry, tracing, exposition.

Dependency-free telemetry for the matching engine.  The registry
(:mod:`repro.obs.registry`) is the single accumulation point for
counters, gauges, and log-bucket histograms; the tracer
(:mod:`repro.obs.tracing`) captures per-request span trees with a
slow-query log; the exposition layer (:mod:`repro.obs.exposition`)
renders registry snapshots as JSON and Prometheus text.

See docs/INTERNALS.md §8 for the metric catalog and span taxonomy.
"""

from repro.obs.exposition import render_prometheus, snapshot_as_dict
from repro.obs.registry import (
    DEFAULT_LATENCY_EDGES,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    RegistrySnapshot,
    RelaxedCounter,
    default_registry,
    log_bucket_edges,
    merge_snapshots,
)
from repro.obs.tracing import Span, Tracer, render_span, trace_span

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_EDGES",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "RegistrySnapshot",
    "RelaxedCounter",
    "Span",
    "Tracer",
    "default_registry",
    "log_bucket_edges",
    "merge_snapshots",
    "render_prometheus",
    "render_span",
    "snapshot_as_dict",
    "trace_span",
]
