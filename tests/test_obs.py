"""Observability plane: registry, tracing, exposition, and the stats op.

The contracts under test: bucket edges are a pure function of their
inputs (two processes configured alike merge without translation),
snapshot merging is associative, label cardinality is bounded, strict
instruments stay exact under thread chaos, and the serve layer's
``stats`` wire op ships non-zero metrics plus span trees that reach
from serve through the matcher into the storage layer.
"""

from __future__ import annotations

import json
import re
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.matcher import FuzzyMatcher
from repro.obs.exposition import render_prometheus, snapshot_as_dict
from repro.obs.registry import (
    DEFAULT_LATENCY_EDGES,
    Counter,
    HistogramSnapshot,
    MetricsRegistry,
    OVERFLOW_LABELS,
    RelaxedCounter,
    default_registry,
    log_bucket_edges,
    merge_snapshots,
)
from repro.obs.tracing import Tracer, trace_span
from repro.serve.client import ServeClient
from repro.serve.protocol import ProtocolError, decode_request
from repro.serve.server import MatchServer, ServeConfig, ServeStats


class ManualClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Bucket edges
# ----------------------------------------------------------------------


class TestBucketEdges:
    def test_edges_are_deterministic_and_exact(self):
        edges = log_bucket_edges(1e-4, 2.0, 18)
        assert edges == log_bucket_edges(1e-4, 2.0, 18)
        assert edges == DEFAULT_LATENCY_EDGES
        assert len(edges) == 18
        assert edges[0] == 1e-4
        for previous, current in zip(edges, edges[1:]):
            assert current == previous * 2.0

    @pytest.mark.parametrize(
        "start, factor, count",
        [(0.0, 2.0, 4), (-1.0, 2.0, 4), (0.1, 1.0, 4), (0.1, 2.0, 0)],
    )
    def test_invalid_parameters_raise(self, start, factor, count):
        with pytest.raises(ValueError):
            log_bucket_edges(start, factor, count)

    def test_observation_on_edge_is_inclusive(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", edges=(1.0, 2.0, 4.0))
        hist.observe(2.0)  # le semantics: lands in the 2.0 bucket
        hist.observe(2.0001)  # just past it: next bucket
        hist.observe(100.0)  # +Inf tail
        snap = hist.snapshot()
        assert snap.counts == (0, 1, 1, 1)
        assert snap.count == 3

    def test_quantile_returns_bucket_edge(self):
        snap = HistogramSnapshot(
            edges=(1.0, 2.0, 4.0), counts=(5, 4, 1, 0), sum=15.0, count=10
        )
        assert snap.quantile(0.5) == 1.0
        assert snap.quantile(0.9) == 2.0
        assert snap.quantile(1.0) == 4.0
        empty = HistogramSnapshot(
            edges=(1.0,), counts=(0, 0), sum=0.0, count=0
        )
        assert empty.quantile(0.99) == 0.0


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("c", {"k": "v"})
        b = registry.counter("c", {"k": "v"})
        assert a is b
        assert registry.counter("c") is not a  # different label set

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("metric")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("metric")
        with pytest.raises(ValueError, match="requested relaxed_counter"):
            registry.counter("metric", relaxed=True)

    def test_histogram_edge_mismatch_raises_even_for_new_labels(self):
        registry = MetricsRegistry()
        registry.histogram("h", {"a": "1"}, edges=(1.0, 2.0))
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("h", {"a": "2"}, edges=(1.0, 3.0))

    def test_label_cardinality_cap_routes_to_overflow(self):
        registry = MetricsRegistry(label_cardinality=2)
        registry.counter("c", {"k": "a"}).inc()
        registry.counter("c", {"k": "b"}).inc()
        # Past the cap: both land on the shared sentinel series.
        registry.counter("c", {"k": "leak-1"}).inc(5)
        registry.counter("c", {"k": "leak-2"}).inc(7)
        snap = registry.snapshot()
        assert snap.counters[("c", OVERFLOW_LABELS)] == 12
        assert snap.counters[("repro_labels_overflow_total", ())] == 2
        # Existing series are unaffected and still addressable.
        assert registry.counter_values("c")[(("k", "a"),)] == 1

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        relaxed = registry.counter("r", relaxed=True)
        gauge = registry.gauge("g")
        hist = registry.histogram("h")
        counter.inc()
        relaxed.inc()
        gauge.set(3.0)
        hist.observe(0.5)
        assert counter.value() == 0
        assert relaxed.value() == 0
        assert gauge.value() == 0.0
        assert hist.snapshot().count == 0
        registry.set_enabled(True)
        counter.inc()
        assert counter.value() == 1
        assert registry.enabled

    def test_strictness_is_two_distinct_classes(self):
        registry = MetricsRegistry()
        assert type(registry.counter("strict")) is Counter
        assert type(registry.counter("fast", relaxed=True)) is RelaxedCounter

    def test_default_registry_is_a_singleton(self):
        assert default_registry() is default_registry()

    def test_collectors_refresh_gauges_on_snapshot(self):
        registry = MetricsRegistry()
        calls = []

        def collect(reg):
            calls.append(1)
            reg.gauge("depth").set(float(len(calls)))

        registry.register_collector(collect)
        assert registry.snapshot().gauges[("depth", ())] == 1.0
        assert registry.snapshot().gauges[("depth", ())] == 2.0
        registry.unregister_collector(collect)
        registry.snapshot()
        assert len(calls) == 2


# ----------------------------------------------------------------------
# Snapshot merging
# ----------------------------------------------------------------------


def build_snapshot(counter, gauge, observations):
    registry = MetricsRegistry()
    registry.counter("jobs_total").inc(counter)
    registry.gauge("depth").set(gauge)
    hist = registry.histogram("latency", edges=(1.0, 2.0, 4.0))
    for value in observations:
        hist.observe(value)
    return registry.snapshot()


class TestSnapshotMerge:
    def test_merge_is_associative_on_integer_observations(self):
        a = build_snapshot(1, 3.0, [1, 1, 4])
        b = build_snapshot(10, 7.0, [2])
        c = build_snapshot(100, 5.0, [8, 8])
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.counters == right.counters
        assert left.gauges == right.gauges
        for key in left.histograms:
            assert left.histograms[key].counts == right.histograms[key].counts
            assert left.histograms[key].sum == right.histograms[key].sum
        assert left.counters[("jobs_total", ())] == 111
        assert left.histograms[("latency", ())].count == 6

    def test_gauges_merge_by_max_not_sum(self):
        # The same point-in-time value sampled into several per-worker
        # registries must not be multiplied by the fan-out.
        merged = merge_snapshots(
            [build_snapshot(0, 7.0, []), build_snapshot(0, 7.0, [])]
        )
        assert merged.gauges[("depth", ())] == 7.0

    def test_mismatched_edges_refuse_to_merge(self):
        registry = MetricsRegistry()
        registry.histogram("latency", edges=(9.0,)).observe(1.0)
        with pytest.raises(ValueError, match="bucket edges"):
            build_snapshot(0, 0.0, [1]).merge(registry.snapshot())

    def test_merge_empty_is_identity(self):
        snap = build_snapshot(5, 2.0, [1])
        merged = merge_snapshots([snap])
        assert merged.counters == snap.counters
        assert merged.gauges == snap.gauges


# ----------------------------------------------------------------------
# Thread safety (chaos)
# ----------------------------------------------------------------------


@pytest.mark.chaos
class TestRegistryChaos:
    """Strict instruments stay exact under concurrent hammering.

    CI reruns this marker with ``REPRO_DEBUG_LOCKS=1`` so lock-order
    violations between the registry lock and instrument locks surface
    as hard failures, not latent deadlocks.
    """

    THREADS = 8
    ROUNDS = 400

    def test_concurrent_increments_and_snapshots(self):
        registry = MetricsRegistry(label_cardinality=4)
        errors = []
        start = threading.Barrier(self.THREADS)

        def hammer(worker):
            try:
                start.wait()
                for i in range(self.ROUNDS):
                    registry.counter("strict_total").inc()
                    registry.counter(
                        "labeled_total", {"w": str(worker % 2)}
                    ).inc()
                    registry.counter(
                        "leaky_total", {"id": f"{worker}-{i}"}
                    ).inc()
                    registry.histogram("lat", edges=(1.0, 4.0)).observe(
                        float(i % 8)
                    )
                    registry.gauge("depth").set(float(i))
                    if i % 50 == 0:
                        registry.snapshot()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,))
            for w in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        expected = self.THREADS * self.ROUNDS
        snap = registry.snapshot()
        assert snap.counters[("strict_total", ())] == expected
        labeled = registry.counter_values("labeled_total")
        assert sum(labeled.values()) == expected
        # The leaky label set exceeded the cap but stayed bounded, and
        # not one increment was dropped: capped series + sentinel
        # account for every call.
        leaky = registry.counter_values("leaky_total")
        assert len(leaky) <= 5  # cap + overflow sentinel
        assert sum(leaky.values()) == expected
        assert snap.histograms[("lat", ())].count == expected

    def test_tracer_record_is_thread_safe(self):
        tracer = Tracer(ring_capacity=16, slow_capacity=4)
        start = threading.Barrier(4)

        def run():
            start.wait()
            for _ in range(200):
                with tracer.trace("request"):
                    with trace_span("inner"):
                        pass

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer.recent()) == 16
        assert tracer.slowest() is not None


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


class TestTracing:
    def test_span_tree_nesting_and_annotations(self):
        clock = ManualClock()
        tracer = Tracer(slow_threshold_s=5.0, clock=clock)
        with tracer.trace("request", op="match") as root:
            clock.advance(0.01)
            with trace_span("matcher", requested="osc") as matcher:
                clock.advance(0.02)
                with trace_span("db"):
                    clock.advance(0.03)
                matcher.annotate(strategy="osc")
            root.child("queue_wait", duration_s=0.005)
        (recorded,) = tracer.recent()
        assert recorded.name == "request"
        assert recorded.annotations["op"] == "match"
        assert recorded.duration_s == pytest.approx(0.06)
        matcher_span, wait_span = recorded.children
        assert matcher_span.annotations["strategy"] == "osc"
        assert matcher_span.children[0].name == "db"
        assert wait_span.duration_s == pytest.approx(0.005)
        node = recorded.as_dict()
        assert node["duration_ms"] == pytest.approx(60.0)
        assert [c["name"] for c in node["children"]] == [
            "matcher",
            "queue_wait",
        ]

    def test_trace_span_without_active_trace_is_noop(self):
        context = trace_span("orphan", ignored=1)
        with context as span:
            assert span is None
        context.annotate(dropped=True)  # must not raise
        assert trace_span("again") is context  # the shared null context

    def test_retention_ring_slow_and_slowest(self):
        clock = ManualClock()
        tracer = Tracer(
            ring_capacity=2, slow_capacity=2, slow_threshold_s=0.1, clock=clock
        )
        durations = [0.05, 0.5, 0.01, 0.2, 0.03]
        for index, duration in enumerate(durations):
            with tracer.trace(f"t{index}"):
                clock.advance(duration)
        assert [s.name for s in tracer.recent()] == ["t3", "t4"]
        assert [s.name for s in tracer.slow()] == ["t1", "t3"]
        # The slowest-ever trace outlives both bounded buffers.
        assert tracer.slowest().name == "t1"
        assert [s.name for s in tracer.recent(1)] == ["t4"]

    def test_exception_annotates_error_and_unwinds(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.trace("request"):
                with trace_span("inner"):
                    raise RuntimeError("boom")
        (recorded,) = tracer.recent()
        assert recorded.annotations["error"] == "RuntimeError"
        assert recorded.children[0].annotations["error"] == "RuntimeError"
        # The stack fully unwound: new spans are orphans again.
        assert trace_span("after") .__enter__() is None

    def test_nested_trace_joins_as_child(self):
        tracer = Tracer()
        with tracer.trace("outer"):
            with tracer.trace("inner"):
                pass
        (recorded,) = tracer.recent()
        assert recorded.name == "outer"
        assert [c.name for c in recorded.children] == ["inner"]


# ----------------------------------------------------------------------
# Exposition
# ----------------------------------------------------------------------


class TestExposition:
    def build_metrics(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", {"kind": "bulk"}).inc(3)
        registry.gauge("repro_depth").set(2.5)
        hist = registry.histogram("repro_lat_seconds", edges=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(9.0)
        return snapshot_as_dict(registry.snapshot())

    def test_snapshot_as_dict_shape_is_json_ready(self):
        metrics = self.build_metrics()
        assert json.loads(json.dumps(metrics)) == metrics
        (counter,) = metrics["counters"]
        assert counter == {
            "name": "repro_jobs_total",
            "labels": {"kind": "bulk"},
            "value": 3,
        }
        (hist,) = metrics["histograms"]
        assert hist["counts"] == [1, 1, 1]
        assert hist["count"] == 3

    def test_prometheus_rendering(self):
        text = render_prometheus(self.build_metrics())
        lines = text.splitlines()
        assert '# TYPE repro_jobs_total counter' in lines
        assert 'repro_jobs_total{kind="bulk"} 3' in lines
        assert "repro_depth 2.5" in lines
        # Cumulative buckets with a +Inf tail, then sum and count.
        assert 'repro_lat_seconds_bucket{le="1.0"} 1' in lines
        assert 'repro_lat_seconds_bucket{le="2.0"} 2' in lines
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_lat_seconds_count 3" in lines
        assert text.endswith("\n")

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", {"q": 'a"b\\c\nd'}).inc()
        text = render_prometheus(snapshot_as_dict(registry.snapshot()))
        assert 'q="a\\"b\\\\c\\nd"' in text

    def test_empty_input_renders_empty(self):
        assert render_prometheus({}) == ""


# ----------------------------------------------------------------------
# Serve integration: ServeStats view + the stats wire op
# ----------------------------------------------------------------------


class TestServeStatsView:
    def test_report_shape_matches_legacy_contract(self):
        stats = ServeStats()
        stats.record_submitted("interactive")
        stats.record_submitted("interactive")
        stats.record_submitted("bulk")
        stats.record_completed()
        stats.record_degraded("deadline")
        stats.record_shed("queue_full")
        stats.record_shed("queue_full")
        stats.record_error("ValueError")
        stats.record_stage_trip()
        stats.record_bulk_shed_sweep()
        stats.record_replay()
        assert stats.as_dict() == {
            "submitted": {"bulk": 1, "interactive": 2},
            "completed": 1,
            "degraded": 1,
            "degraded_reasons": {"deadline": 1},
            "shed": 2,
            "shed_reasons": {"queue_full": 2},
            "errors": {"ValueError": 1},
            "stage_trips": 1,
            "bulk_shed_sweeps": 1,
            "idempotent_replays": 1,
        }

    def test_counters_land_in_the_registry(self):
        registry = MetricsRegistry()
        stats = ServeStats(registry)
        stats.record_shed("overload")
        snap = registry.snapshot()
        key = ("repro_serve_shed_total", (("reason", "overload"),))
        assert snap.counters[key] == 1


class TestStatsSectionsDecoding:
    def test_sections_decode_and_dedupe(self):
        request = decode_request(
            b'{"op":"stats","sections":["serve","traces","serve"]}'
        )
        assert request.sections == ("serve", "traces")
        assert decode_request(b'{"op":"stats"}').sections is None

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"op":"stats","sections":[]}',
            b'{"op":"stats","sections":"serve"}',
            b'{"op":"stats","sections":["bogus"]}',
            b'{"op":"stats","sections":[1]}',
        ],
    )
    def test_invalid_sections_are_typed_errors(self, payload):
        with pytest.raises(ProtocolError):
            decode_request(payload)


@contextmanager
def observed_server(engine, **config_kwargs):
    config = ServeConfig(workers=2, **config_kwargs)
    server = MatchServer(engine=engine, config=config)
    try:
        server.start()
        yield server
    finally:
        server.shutdown(drain_budget_s=1.0)


@pytest.fixture()
def org_engine(org_reference, org_weights, paper_config, org_eti):
    return FuzzyMatcher(org_reference, org_weights, paper_config, org_eti)


def span_names(node):
    return [node["name"]] + [
        name for child in node.get("children", []) for name in span_names(child)
    ]


class TestStatsWireOp:
    def test_live_stats_show_metrics_and_a_full_depth_trace(self, org_engine):
        # slow_trace_ms far below any real latency: every request is
        # "slow", so the slow-query log is deterministically populated.
        with observed_server(org_engine, slow_trace_ms=0.001) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                for _ in range(3):
                    response = client.match(
                        ["Beoing Company", "Seattle", "WA", "98004"]
                    )
                    assert response["outcome"] == "completed"
                payload = client.stats(["serve", "metrics", "traces"])

        assert payload["ok"] is True
        assert payload["completed"] == 3
        metrics = payload["metrics"]
        counters = {
            (series["name"], tuple(sorted(series["labels"].items()))): series[
                "value"
            ]
            for series in metrics["counters"]
        }
        assert counters[("repro_match_queries_total", ())] == 3
        assert counters[("repro_match_eti_lookups_total", ())] > 0
        request_hist = next(
            series
            for series in metrics["histograms"]
            if series["name"] == "repro_serve_request_seconds"
            and series["labels"] == {"stage": "osc"}
        )
        assert request_hist["count"] == 3
        assert request_hist["sum"] > 0.0
        match_hist = next(
            series
            for series in metrics["histograms"]
            if series["name"] == "repro_match_seconds"
            and series["labels"] == {"strategy": "osc"}
        )
        assert match_hist["count"] == 3
        gauges = {
            series["name"]: series["value"] for series in metrics["gauges"]
        }
        assert gauges["repro_pool_hit_rate"] > 0.0

        traces = payload["traces"]
        assert traces["slow_threshold_ms"] == 0.001
        assert len(traces["slow"]) == 3
        slowest = traces["slowest"]
        names = span_names(slowest)
        # The slow-query trace spans serve -> matcher -> db.
        assert names[0] == "request"
        assert "serve.queue_wait" in names
        assert "matcher" in names
        assert "matcher.eti_lookups" in names
        assert "db" in names
        assert slowest["annotations"]["outcome"] == "completed"

    def test_default_sections_omit_traces(self, org_engine):
        with observed_server(org_engine) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                payload = client.stats()
                assert "metrics" in payload
                assert "traces" not in payload
                assert "completed" in payload
                serve_only = client.stats(["serve"])
                assert "metrics" not in serve_only
                assert serve_only["ok"] is True

    def test_every_metric_name_is_in_the_documented_catalog(self, org_engine):
        internals = Path(__file__).parent.parent / "docs" / "INTERNALS.md"
        section = internals.read_text().split("**Metric catalog.**")[1]
        table = section.split("\n\n")[1]
        documented, on_first_event = set(), set()
        for row in table.splitlines()[2:]:
            names_cell, kind = row.split("|")[1:3]
            names = re.findall(r"`([a-z0-9_]+)`", names_cell)
            family = "_".join(names[0].split("_")[:2])  # repro_<family>
            full = {family + n if n.startswith("_") else n for n in names}
            documented |= full
            if "†" in kind:
                on_first_event |= full
        assert "repro_fms_bound_prunes_total" in documented
        assert "repro_serve_shed_total" in on_first_event

        with observed_server(org_engine) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                response = client.match(["Beoing Company", "Seattle", "WA", "98004"])
                assert response["outcome"] == "completed"
            snap = server.metrics_snapshot()
        registered = {
            name
            for series in (snap.counters, snap.gauges, snap.histograms)
            for name, _ in series
        }
        assert registered - documented == set()
        assert documented - registered <= on_first_event

    def test_malformed_sections_get_a_typed_error(self, org_engine):
        with observed_server(org_engine) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                bad = client.request({"op": "stats", "sections": ["nope"]})
                assert bad["outcome"] == "error"
                assert bad["error_type"] == "ProtocolError"
                # The connection and the server both survived.
                assert client.ping()["ok"] is True

    def test_metrics_toggle_stops_and_resumes_recording(self, org_engine):
        with observed_server(org_engine) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                server.set_metrics_enabled(False)
                client.match(["Beoing Company", "Seattle", "WA", "98004"])
                snap = server.metrics_snapshot()
                assert snap.counters.get(
                    ("repro_match_queries_total", ()), 0
                ) == 0
                server.set_metrics_enabled(True)
                client.match(["Beoing Company", "Seattle", "WA", "98004"])
                snap = server.metrics_snapshot()
                assert snap.counters[("repro_match_queries_total", ())] == 1
