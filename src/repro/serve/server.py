"""The `repro serve` engine: a bounded, drain-safe online match server.

Architecture (one process, thread-per-role):

- **Acceptor** — accepts TCP connections and hands each to a handler
  thread.  It starts *before* the engine finishes loading so ``ping``
  answers immediately (readiness ``loading``); match requests arriving
  in that window are shed with reason ``loading`` instead of queueing
  against an engine that does not exist yet.
- **Connection handlers** — one per client, reading newline-delimited
  JSON requests (:mod:`repro.serve.protocol`).  A ``match`` request is
  stamped with its end-to-end :class:`~repro.core.resilience.Deadline`
  and offered to the :class:`~repro.serve.admission.AdmissionQueue`;
  the handler then blocks on the item's event and writes whichever of
  the trichotomy outcomes resolved it.
- **Workers** — pull admitted items, shed anything whose deadline
  expired while queued, ask the
  :class:`~repro.serve.lifecycle.DegradationLadder` what stage to run
  at, and execute through the batch engine's per-thread matcher
  (:meth:`~repro.core.batch.BatchMatcher.worker_matcher`) under the
  request's own deadline — queue wait is not free, it comes out of
  compute.
- **Watchdog** — periodically feeds queue-wait p95 to the ladder
  (degrade), sheds queued bulk work past the shed threshold, and
  reports workers that went busy-silent (stuck) through readiness.

Shutdown (:meth:`MatchServer.shutdown`) is a drain, not an abort: stop
accepting, refuse new offers, finish what was admitted within the drain
budget, shed the rest with a typed reason, then checkpoint the WAL so
the on-disk database is clean for the next process.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.analysis.debuglock import make_lock
from repro.core.batch import BatchMatcher
from repro.core.matcher import FuzzyMatcher
from repro.core.resilience import Deadline
from repro.db.database import Database
from repro.db.errors import DatabaseError
from repro.db.snapshot import save_database
from repro.obs.exposition import snapshot_as_dict
from repro.obs.registry import (
    MetricsRegistry,
    RegistrySnapshot,
    default_registry,
    merge_snapshots,
)
from repro.obs.tracing import Tracer
from repro.serve.admission import AdmissionQueue, ConnectionGate, WorkItem
from repro.serve.lifecycle import (
    STAGES,
    STATE_DRAINING,
    STATE_LOADING,
    STATE_SERVING,
    STATE_STOPPED,
    DegradationLadder,
    Lifecycle,
    WorkerHealth,
)
from repro.serve.protocol import (
    SHED_DEADLINE_EXPIRED,
    SHED_DRAIN_BUDGET,
    SHED_FRAME_TOO_LARGE,
    SHED_LOADING,
    SHED_OVERLOAD,
    SHED_PIPELINE_OVERFLOW,
    SHED_SLOW_FRAME,
    SHED_TOO_MANY_CONNECTIONS,
    FrameReader,
    FrameTooLargeError,
    PipelineOverflowError,
    Request,
    ProtocolError,
    ServeError,
    SheddedError,
    SlowFrameError,
    decode_request,
    encode_line,
    error_response,
    result_response,
    shed_response,
)

#: ``engine_factory`` return type: the batch engine plus (optionally)
#: the database handle to checkpoint on drain.
EngineFactory = Callable[[], "tuple[BatchMatcher, Database | None]"]

#: Worker queue-poll timeout (drain/stop latency granularity).
IDLE_POLL_S = 0.1
#: Entries in the bounded response cache for client retries.
IDEMPOTENCY_CACHE_SIZE = 1024
#: Recent request traces retained in the tracer's ring buffer.
TRACE_RING_CAPACITY = 64
#: Slow request traces retained alongside the ring buffer.
SLOW_TRACE_CAPACITY = 16


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for :class:`MatchServer` (all have safe defaults)."""

    host: str = "127.0.0.1"
    port: int = 0
    """0 = let the OS pick; the bound port is in ``server.address``."""
    workers: int = 4
    """Engine worker threads (one per-thread matcher each)."""
    queue_capacity: int = 64
    """Admission queue bound; arrivals past it are shed, not queued."""
    default_deadline_ms: float | None = 250.0
    """End-to-end deadline applied when a request names none
    (``None`` = requests without a deadline run unbounded)."""
    max_page_fetches: int | None = None
    """Optional per-request physical-read cap, counted from query start."""
    degrade_p95_s: float = 0.200
    """Queue-wait p95 at which the ladder trips one stage cheaper."""
    recover_p95_s: float = 0.050
    """Queue-wait p95 a recovery probe must see to reclose a breaker."""
    shed_p95_s: float = 0.400
    """Queue-wait p95 at which queued bulk work is shed outright."""
    stage_cooldown_s: float = 1.0
    """Seconds a tripped stage breaker waits before probing recovery."""
    drain_budget_s: float = 5.0
    """Wall-clock allowance for finishing admitted work on shutdown."""
    watchdog_interval_s: float = 0.05
    """Governor/watchdog tick."""
    stuck_after_s: float = 10.0
    """A busy worker silent this long is reported stuck."""
    response_grace_s: float = 5.0
    """Extra wait past a request's deadline before the connection
    handler gives up on its worker (stuck-worker escape hatch)."""
    max_frame_bytes: int = 1 << 20
    """Hard cap on one request line; larger frames are drained and shed
    with reason ``frame_too_large``, never buffered."""
    frame_timeout_s: float = 10.0
    """Once a frame's first byte arrives the whole line must follow
    within this budget (slowloris defense)."""
    idle_timeout_s: float = 300.0
    """A connection silent this long between requests is closed."""
    write_timeout_s: float = 10.0
    """Per-response ``sendall`` deadline; a peer that will not read its
    response loses the connection instead of parking a handler."""
    max_pipelined_frames: int = 32
    """Per-connection cap on decoded-but-unanswered frames."""
    oversize_drain_bytes: int = 1 << 20
    """How far past ``max_frame_bytes`` the server drains an oversized
    line hunting for its newline before giving up on the connection."""
    max_connections: int = 256
    """Global cap on concurrently open connections."""
    max_connections_per_peer: int = 64
    """Per-peer-address cap on concurrently open connections."""
    slow_trace_ms: float = 50.0
    """Requests slower than this land in the tracer's slow-query log."""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")
        if not (0 <= self.recover_p95_s <= self.degrade_p95_s <= self.shed_p95_s):
            raise ValueError(
                "thresholds must satisfy 0 <= recover <= degrade <= shed"
            )
        for name in (
            "stage_cooldown_s",
            "drain_budget_s",
            "watchdog_interval_s",
            "stuck_after_s",
            "response_grace_s",
            "frame_timeout_s",
            "idle_timeout_s",
            "write_timeout_s",
            "slow_trace_ms",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in (
            "max_frame_bytes",
            "max_pipelined_frames",
            "max_connections",
            "max_connections_per_peer",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.oversize_drain_bytes < 0:
            raise ValueError("oversize_drain_bytes must be >= 0")


class ServeStats:
    """Thread-safe outcome counters (reported by ``op=stats``).

    A view over strict counters in a
    :class:`~repro.obs.registry.MetricsRegistry` (the ``repro_serve_*``
    series); reason- and priority-classed outcomes become labeled series
    (``repro_serve_shed_total{reason=...}`` etc).  :meth:`as_dict`
    rebuilds the historical flat-dict report shape from the registry so
    the wire contract predates-and-survives the metrics plane.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        self._completed = registry.counter("repro_serve_completed_total")
        self._stage_trips = registry.counter("repro_serve_stage_trips_total")
        self._bulk_shed_sweeps = registry.counter(
            "repro_serve_bulk_shed_sweeps_total"
        )
        self._idempotent_replays = registry.counter(
            "repro_serve_idempotent_replays_total"
        )

    def record_submitted(self, priority: str) -> None:
        """Count one admitted request under its priority class."""
        self.registry.counter(
            "repro_serve_submitted_total", {"priority": priority}
        ).inc()

    def record_completed(self) -> None:
        """Count one full-fidelity completion."""
        self._completed.inc()

    def record_degraded(self, reason: str) -> None:
        """Count one degraded answer under its reason."""
        self.registry.counter(
            "repro_serve_degraded_total", {"reason": reason}
        ).inc()

    def record_shed(self, reason: str) -> None:
        """Count one shed request under its typed reason."""
        self.registry.counter("repro_serve_shed_total", {"reason": reason}).inc()

    def record_error(self, error_type: str) -> None:
        """Count one typed error response."""
        self.registry.counter("repro_serve_errors_total", {"type": error_type}).inc()

    def record_stage_trip(self) -> None:
        """Count one degradation-ladder stage trip."""
        self._stage_trips.inc()

    def record_bulk_shed_sweep(self) -> None:
        """Count one watchdog sweep that shed queued bulk work."""
        self._bulk_shed_sweeps.inc()

    def record_replay(self) -> None:
        """Count one response answered from the idempotency cache."""
        self._idempotent_replays.inc()

    def _by_label(self, name: str) -> dict[str, int]:
        """Series values of ``name`` keyed by their single label value."""
        return {
            pairs[0][1]: value
            for pairs, value in self.registry.counter_values(name).items()
            if pairs
        }

    def as_dict(self) -> dict[str, Any]:
        """Snapshot of all counters as a JSON-ready dict."""
        submitted = self._by_label("repro_serve_submitted_total")
        degraded = self._by_label("repro_serve_degraded_total")
        shed = self._by_label("repro_serve_shed_total")
        errors = self._by_label("repro_serve_errors_total")
        return {
            "submitted": dict(sorted(submitted.items())),
            "completed": self._completed.value(),
            "degraded": sum(degraded.values()),
            "degraded_reasons": dict(sorted(degraded.items())),
            "shed": sum(shed.values()),
            "shed_reasons": dict(sorted(shed.items())),
            "errors": dict(sorted(errors.items())),
            "stage_trips": self._stage_trips.value(),
            "bulk_shed_sweeps": self._bulk_shed_sweeps.value(),
            "idempotent_replays": self._idempotent_replays.value(),
        }


class IdempotencyCache:
    """Bounded LRU of match responses keyed by client idempotency key.

    A client that retries after a timeout resends the same key; answering
    a retransmission from this cache means the engine ran the request at
    most once even though the wire saw it twice.  Only engine-resolved
    outcomes (completed / degraded / typed engine error) are stored —
    shed responses and stuck-worker timeouts are not, so a retry of
    refused or unresolved work is admitted fresh.  Past ``capacity`` the
    least recently used entry is evicted, so a hostile client cannot
    balloon server memory through unique keys.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = make_lock("IdempotencyCache._lock")
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached response for ``key``, refreshing its recency."""
        with self._lock:
            payload = self._entries.get(key)
            if payload is not None:
                self._entries.move_to_end(key)
            return payload

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Store ``key``'s response, evicting the oldest past capacity."""
        with self._lock:
            self._entries[key] = payload
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class MatchServer:
    """Online fuzzy-match server over one batch engine.

    Construct with either a ready ``engine`` (and optionally the
    ``database`` to checkpoint on drain) or an ``engine_factory`` whose
    load time is surfaced as the ``loading`` readiness state.  ``start``
    binds, begins accepting (ping works immediately), resolves the
    engine, then transitions to ``serving``; ``shutdown`` drains.

    ``on_bound`` fires with ``(host, port)`` right after bind — before
    loading — so supervisors can discover an OS-assigned port.
    ``before_execute`` is a test seam invoked by a worker just before it
    runs an item's query.
    """

    def __init__(
        self,
        engine: BatchMatcher | None = None,
        database: Database | None = None,
        config: ServeConfig | None = None,
        *,
        engine_factory: EngineFactory | None = None,
        on_bound: Callable[[str, int], None] | None = None,
        before_execute: Callable[[WorkItem], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if (engine is None) == (engine_factory is None):
            raise ValueError("pass exactly one of engine= or engine_factory=")
        self.config = config if config is not None else ServeConfig()
        self._engine = engine
        self._database = database
        self._engine_factory = engine_factory
        self._on_bound = on_bound
        self._before_execute = before_execute
        self._clock = clock
        self._default_strategy = "osc"

        self.lifecycle = Lifecycle(clock=clock)
        self.queue = AdmissionQueue(self.config.queue_capacity, clock=clock)
        self.health = WorkerHealth(self.config.stuck_after_s, clock=clock)
        self.ladder = DegradationLadder(
            degrade_at_s=self.config.degrade_p95_s,
            recover_at_s=self.config.recover_p95_s,
            cooldown_s=self.config.stage_cooldown_s,
            clock=clock,
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(
                ring_capacity=TRACE_RING_CAPACITY,
                slow_capacity=SLOW_TRACE_CAPACITY,
                slow_threshold_s=self.config.slow_trace_ms / 1000.0,
            )
        )
        self.stats = ServeStats(self.registry)
        self._obs_queue_wait = self.registry.histogram(
            "repro_serve_queue_wait_seconds"
        )
        self._obs_request_seconds = {
            stage: self.registry.histogram(
                "repro_serve_request_seconds", {"stage": stage}
            )
            for stage in STAGES
        }
        self.registry.register_collector(self._collect_gauges)
        self.gate = ConnectionGate(
            self.config.max_connections, self.config.max_connections_per_peer
        )
        self.idempotency = IdempotencyCache(IDEMPOTENCY_CACHE_SIZE)

        self.address: tuple[str, int] | None = None
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._workers_stop = threading.Event()
        self._shutdown_event = threading.Event()
        self._conns_lock = make_lock("MatchServer._conns_lock")
        self._conns: list[socket.socket] = []
        self._shutdown_lock = make_lock("MatchServer._shutdown_lock")
        self._drained = False
        self.checkpoint_error: str | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, accept, load, serve.  Returns the bound address.

        Blocks until the engine is resolved and workers are running; the
        acceptor runs from the moment the socket is bound, so ``ping``
        (and honest ``loading`` sheds) work during a slow load.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.config.host, self.config.port))
            listener.listen(128)
        except OSError:
            # bind/listen can fail (port in use, bad host) — without this
            # the socket outlives the failed start() call.
            listener.close()
            raise
        self._listener = listener
        host, port = listener.getsockname()[:2]
        self.address = (host, port)
        if self._on_bound is not None:
            self._on_bound(host, port)

        acceptor = threading.Thread(
            target=self._accept_loop, name="repro-serve-acceptor", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)

        if self._engine is None:
            assert self._engine_factory is not None
            self._engine, self._database = self._engine_factory()
        engine = self._engine
        self._default_strategy = "osc" if engine.config.use_osc else "basic"
        # Touch lazily-built shared structures while still single-threaded.
        engine.warm_shared_state()

        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop,
                args=(f"worker-{index}",),
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._threads.append(worker)
        watchdog = threading.Thread(
            target=self._watchdog_loop, name="repro-serve-watchdog", daemon=True
        )
        watchdog.start()
        self._threads.append(watchdog)

        self.lifecycle.transition(STATE_SERVING)
        return (host, port)

    def request_shutdown(self) -> None:
        """Ask the serve loop to drain (signal-handler safe)."""
        self._shutdown_event.set()

    def serve_until_shutdown(self) -> None:
        """Block until :meth:`request_shutdown`, then drain."""
        # Short waits keep the main thread responsive to signals.
        while not self._shutdown_event.wait(0.2):
            pass
        self.shutdown()

    def shutdown(self, drain_budget_s: float | None = None) -> None:
        """Graceful drain: finish admitted work, shed the rest, checkpoint.

        Safe to call more than once; later calls return immediately.
        """
        with self._shutdown_lock:
            if self._drained:
                return
            self._drained = True
        self._shutdown_event.set()
        self.registry.unregister_collector(self._collect_gauges)
        budget_s = (
            drain_budget_s if drain_budget_s is not None else self.config.drain_budget_s
        )

        if self.lifecycle.state == STATE_LOADING:
            # Nothing admitted yet; there is no work to drain.
            self._close_listener()
            self.lifecycle.transition(STATE_STOPPED)
            return

        self.lifecycle.transition(STATE_DRAINING)
        self._close_listener()
        self.queue.close()

        drain = Deadline.after(budget_s, clock=self._clock)
        while not drain.expired():
            if self.queue.depth == 0 and self.health.busy_workers() == 0:
                break
            time.sleep(0.005)
        for victim in self.queue.drain_remaining():
            victim.shed(SHED_DRAIN_BUDGET)

        self._workers_stop.set()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=max(1.0, IDLE_POLL_S * 4))
        self._checkpoint()
        self._close_connections()
        self.lifecycle.transition(STATE_STOPPED)

    def _checkpoint(self) -> None:
        """Checkpoint the WAL on drain so the next open starts clean."""
        db = self._database
        if db is None or db.pool.wal is None:
            return
        try:
            save_database(db)
        except DatabaseError as exc:
            # Drain must still complete; surface the failure via ping/stats
            # instead of dying with work already refused.
            self.checkpoint_error = str(exc)
            self.stats.record_error(type(exc).__name__)

    def _close_listener(self) -> None:
        listener = self._listener
        self._listener = None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass

    def _close_connections(self) -> None:
        with self._conns_lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        """Alias for :meth:`shutdown` with the configured drain budget."""
        self.shutdown()

    def __enter__(self) -> "MatchServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def readiness(self) -> dict[str, Any]:
        """The ``ping`` payload: state, stage, queue and worker health."""
        lifecycle_state = self.lifecycle.state
        stage = self.ladder.stage()
        stuck = self.health.stuck_workers()
        state = lifecycle_state
        if lifecycle_state == STATE_SERVING and (stage != STAGES[0] or stuck):
            state = "degraded"
        payload: dict[str, Any] = {
            "ok": True,
            "state": state,
            "lifecycle_state": lifecycle_state,
            "stage": stage,
            "uptime_s": round(self.lifecycle.uptime(), 3),
            "queue_depth": self.queue.depth,
            "queue_capacity": self.queue.capacity,
            "queue_max_depth": self.queue.max_depth,
            "p95_wait_ms": round(self.queue.p95_wait() * 1000, 3),
            "workers": self.health.workers(),
            "busy_workers": self.health.busy_workers(),
            "stuck_workers": list(stuck),
            "breakers": self.ladder.breaker_states(),
        }
        if self.checkpoint_error is not None:
            payload["checkpoint_error"] = self.checkpoint_error
        return payload

    def stats_payload(
        self, sections: tuple[str, ...] | None = None
    ) -> dict[str, Any]:
        """The ``stats`` op response, shaped by the requested sections.

        ``sections=None`` means the default set ``("serve", "metrics")``;
        ``traces`` is opt-in because serialized span trees are the
        largest part of the payload.  Every response carries ``ok``,
        ``state``, and ``stage`` regardless of sections.
        """
        selected = sections if sections else ("serve", "metrics")
        payload: dict[str, Any] = {
            "ok": True,
            "state": self.lifecycle.state,
            "stage": self.ladder.stage(),
        }
        if "serve" in selected:
            payload.update(self.stats.as_dict())
            payload["queue_max_depth"] = self.queue.max_depth
            payload["ladder_trips"] = self.ladder.trips()
        if "metrics" in selected:
            payload["metrics"] = snapshot_as_dict(self.metrics_snapshot())
        if "traces" in selected:
            tracer = self.tracer
            slowest = tracer.slowest()
            payload["traces"] = {
                "slow_threshold_ms": self.config.slow_trace_ms,
                "recent": [span.as_dict() for span in tracer.recent(8)],
                "slow": [span.as_dict() for span in tracer.slow()],
                "slowest": slowest.as_dict() if slowest is not None else None,
            }
        return payload

    def metrics_snapshot(self) -> RegistrySnapshot:
        """One merged snapshot across every registry this server touches.

        Combines the server's own registry (serve-plane counters and
        latency histograms plus collected gauges), each engine worker's
        per-matcher registry (cache and match counters), and the
        process-global default registry (kernel and FMS counters).
        """
        snapshots = [self.registry.snapshot()]
        engine = self._engine
        if engine is not None:
            snapshots.append(engine.metrics_snapshot())
        snapshots.append(default_registry().snapshot())
        return merge_snapshots(snapshots)

    def set_metrics_enabled(self, enabled: bool) -> None:
        """Toggle metric recording everywhere (benchmark A/B switch)."""
        self.registry.set_enabled(enabled)
        engine = self._engine
        if engine is not None:
            engine.set_metrics_enabled(enabled)
        default_registry().set_enabled(enabled)

    def _collect_gauges(self, registry: MetricsRegistry) -> None:
        """Refresh point-in-time gauges just before a snapshot.

        Runs outside the registry lock (collector contract), reading
        only values that are safe to sample concurrently.
        """
        registry.gauge("repro_serve_queue_depth").set(self.queue.depth)
        registry.gauge("repro_serve_queue_max_depth").set(self.queue.max_depth)
        registry.gauge("repro_serve_ladder_stage").set(
            STAGES.index(self.ladder.stage())
        )
        registry.gauge("repro_serve_p95_wait_seconds").set(self.queue.p95_wait())
        engine = self._engine
        if engine is None:
            return
        pool = engine.reference.relation.heap.pool
        stats = pool.stats
        registry.gauge("repro_pool_hits").set(stats.hits)
        registry.gauge("repro_pool_misses").set(stats.misses)
        lookups = stats.hits + stats.misses
        registry.gauge("repro_pool_hit_rate").set(
            stats.hits / lookups if lookups else 0.0
        )
        registry.gauge("repro_pool_physical_reads").set(stats.physical_reads)
        wal = pool.wal
        if wal is not None:
            registry.gauge("repro_wal_appends").set(wal.stats.appends)
            registry.gauge("repro_wal_syncs").set(wal.stats.syncs)
            registry.gauge("repro_wal_tail_pages").set(wal.tail_pages)

    # ------------------------------------------------------------------
    # Acceptor + connection handling
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while listener is not None:
            try:
                # Every path below stores the socket (handler thread) or
                # closes it (_refuse_connection); the prologue between
                # accept and that hand-off is non-raising attribute and
                # dict work.
                conn, addr = listener.accept()  # reprolint: disable=resource-leak
            except OSError:
                return  # listener closed: shutdown
            peer = addr[0] if isinstance(addr, tuple) else str(addr)
            if not self.gate.admit(peer):
                self._refuse_connection(conn)
                listener = self._listener
                continue
            with self._conns_lock:
                self._conns.append(conn)
            handler = threading.Thread(
                target=self._handle_connection,
                args=(conn, peer),
                name="repro-serve-conn",
                daemon=True,
            )
            handler.start()
            listener = self._listener

    def _refuse_connection(self, conn: socket.socket) -> None:
        """Turn a socket away at the door with a typed response.

        Best effort and quick — the acceptor must not be parked by a
        refused peer that will not read, so the write deadline here is
        short and independent of the per-connection write timeout.
        """
        self.stats.record_shed(SHED_TOO_MANY_CONNECTIONS)
        try:
            conn.settimeout(1.0)
            conn.sendall(
                encode_line(
                    shed_response(
                        None,
                        SHED_TOO_MANY_CONNECTIONS,
                        self.lifecycle.state,
                        self.ladder.stage(),
                    )
                )
            )
        except OSError:
            pass
        try:
            conn.close()
        except OSError:
            pass

    def _handle_connection(self, conn: socket.socket, peer: str) -> None:
        config = self.config
        reader = FrameReader(
            conn,
            max_frame_bytes=config.max_frame_bytes,
            frame_timeout_s=config.frame_timeout_s,
            idle_timeout_s=config.idle_timeout_s,
            max_pipelined_frames=config.max_pipelined_frames,
            oversize_drain_bytes=config.oversize_drain_bytes,
        )
        try:
            while True:
                try:
                    frame = reader.next_frame()
                except FrameTooLargeError as exc:
                    self.stats.record_shed(SHED_FRAME_TOO_LARGE)
                    self._send_boundary_shed(conn, SHED_FRAME_TOO_LARGE)
                    if exc.recoverable:
                        continue
                    break
                except SlowFrameError:
                    self.stats.record_shed(SHED_SLOW_FRAME)
                    self._send_boundary_shed(conn, SHED_SLOW_FRAME)
                    break
                except PipelineOverflowError:
                    self.stats.record_shed(SHED_PIPELINE_OVERFLOW)
                    self._send_boundary_shed(conn, SHED_PIPELINE_OVERFLOW)
                    break
                if frame is None:
                    break  # EOF or idle timeout
                line = frame.strip()
                if not line:
                    continue
                response = self._respond_line(line)
                conn.settimeout(config.write_timeout_s)
                conn.sendall(response)
        except OSError:
            pass  # peer went away or drain closed the socket under us
        finally:
            try:
                conn.close()
            except OSError:
                pass
            self._forget_connection(conn)
            self.gate.release(peer)

    def _send_boundary_shed(self, conn: socket.socket, reason: str) -> None:
        """Best-effort typed response for a framing violation."""
        try:
            conn.settimeout(self.config.write_timeout_s)
            conn.sendall(
                encode_line(
                    shed_response(
                        None, reason, self.lifecycle.state, self.ladder.stage()
                    )
                )
            )
        except OSError:
            pass

    def _forget_connection(self, conn: socket.socket) -> None:
        with self._conns_lock:
            if conn in self._conns:
                self._conns.remove(conn)

    def _respond_line(self, line: bytes) -> bytes:
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            self.stats.record_error("ProtocolError")
            return encode_line(
                error_response(
                    None,
                    "ProtocolError",
                    str(exc),
                    self.lifecycle.state,
                    self.ladder.stage(),
                )
            )
        try:
            if request.op == "ping":
                return encode_line(self.readiness())
            if request.op == "stats":
                return encode_line(self.stats_payload(request.sections))
            return encode_line(self._respond_match(request))
        except Exception as exc:  # reprolint: disable=exception-taxonomy
            # The boundary invariant: no single request — however it
            # fails — may kill the handler loop or escape untyped.
            self.stats.record_error("InternalError")
            return encode_line(
                error_response(
                    request.id,
                    "InternalError",
                    f"{type(exc).__name__}: {exc}",
                    self.lifecycle.state,
                    self.ladder.stage(),
                )
            )

    def _respond_match(self, request: Request) -> dict[str, Any]:
        state = self.lifecycle.state
        stage = self.ladder.stage()
        if state == STATE_LOADING:
            self.stats.record_shed(SHED_LOADING)
            return shed_response(request.id, SHED_LOADING, state, stage)

        key = request.idempotency_key
        if key is not None:
            cached = self.idempotency.get(key)
            if cached is not None:
                self.stats.record_replay()
                return cached

        deadline_ms = request.deadline_ms
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        deadline = (
            Deadline.after(deadline_ms / 1000.0, clock=self._clock)
            if deadline_ms is not None
            else None
        )
        item = WorkItem(request, deadline, self._clock())
        self.stats.record_submitted(request.priority)
        if deadline is not None and deadline.expired():
            # The deadline was dead on arrival (a zero-or-negative
            # remainder): shed honestly instead of racing a worker for a
            # result nobody is waiting for.
            self.stats.record_shed(SHED_DEADLINE_EXPIRED)
            return shed_response(request.id, SHED_DEADLINE_EXPIRED, state, stage)
        try:
            self.queue.offer(item)
        except SheddedError as exc:
            self.stats.record_shed(exc.reason)
            return shed_response(
                request.id, exc.reason, self.lifecycle.state, self.ladder.stage()
            )

        payload = self._await_result(item, request, deadline)
        if key is not None and payload["outcome"] != "shed" and payload.get(
            "error_type"
        ) != "StuckWorkerTimeout":
            self.idempotency.put(key, payload)
        return payload

    def _await_result(
        self, item: WorkItem, request: Request, deadline: Deadline | None
    ) -> dict[str, Any]:
        """Block on the admitted item's resolution and shape the response."""
        timeout: float | None = None
        if deadline is not None:
            timeout = max(0.0, deadline.remaining()) + self.config.response_grace_s
        if not item.done.wait(timeout):
            # The worker holding this item went silent past deadline +
            # grace: answer the client instead of hanging the connection.
            self.stats.record_error("StuckWorkerTimeout")
            return error_response(
                request.id,
                "StuckWorkerTimeout",
                "request was admitted but no worker resolved it in time",
                self.lifecycle.state,
                self.ladder.stage(),
            )

        if item.shed_reason is not None:
            self.stats.record_shed(item.shed_reason)
            return shed_response(
                request.id,
                item.shed_reason,
                self.lifecycle.state,
                self.ladder.stage(),
            )
        if item.error_type is not None:
            self.stats.record_error(item.error_type)
            return error_response(
                request.id,
                item.error_type,
                item.error_message or item.error_type,
                self.lifecycle.state,
                self.ladder.stage(),
            )
        result = item.result
        assert result is not None  # complete() set exactly one of the three
        payload = result_response(
            request,
            result,
            item.requested_strategy,
            item.effective_strategy,
            item.stage,
            self.lifecycle.state,
            queue_wait_ms=item.queue_wait * 1000.0,
        )
        if payload["outcome"] == "completed":
            self.stats.record_completed()
        elif payload["outcome"] == "degraded":
            self.stats.record_degraded(str(payload.get("degraded_reason")))
        else:
            self.stats.record_error(str(payload.get("error_type")))
        return payload

    # ------------------------------------------------------------------
    # Workers + watchdog
    # ------------------------------------------------------------------

    def _worker_loop(self, name: str) -> None:
        engine = self._engine
        assert engine is not None  # start() resolved it before spawning us
        matcher = engine.worker_matcher()
        self.health.beat(name, busy=False)
        try:
            while not self._workers_stop.is_set():
                item = self.queue.take(IDLE_POLL_S)
                if item is None:
                    self.health.beat(name, busy=False)
                    continue
                self.health.beat(name, busy=True)
                try:
                    self._execute(item, matcher)
                finally:
                    self.health.beat(name, busy=False)
        finally:
            self.health.deregister(name)

    def _execute(self, item: WorkItem, matcher: FuzzyMatcher) -> None:
        """Observability wrapper around :meth:`_execute_inner`.

        Records queue wait and per-stage service latency into the
        registry, and (when metrics are on) captures the request's span
        tree — a synthesized ``serve.queue_wait`` child plus whatever
        spans the matcher and storage layers open — annotated with the
        resolved outcome.
        """
        self._obs_queue_wait.observe(item.queue_wait)
        started = time.perf_counter()
        if self.registry.enabled:
            with self.tracer.trace(
                "request",
                op=item.request.op,
                id=item.request.id,
                priority=item.request.priority,
            ) as root:
                root.child("serve.queue_wait", duration_s=item.queue_wait)
                self._execute_inner(item, matcher)
                if item.shed_reason is not None:
                    root.annotate(outcome="shed", reason=item.shed_reason)
                elif item.error_type is not None:
                    root.annotate(outcome="error", error_type=item.error_type)
                else:
                    result = item.result
                    degraded = result is not None and result.stats.degraded
                    root.annotate(
                        outcome="degraded" if degraded else "completed",
                        strategy=item.effective_strategy,
                        stage=item.stage,
                    )
        else:
            self._execute_inner(item, matcher)
        stage = item.stage or self.ladder.stage()
        histogram = self._obs_request_seconds.get(stage)
        if histogram is not None:
            histogram.observe(time.perf_counter() - started)

    def _execute_inner(self, item: WorkItem, matcher: FuzzyMatcher) -> None:
        request = item.request
        if item.deadline is not None and item.deadline.expired():
            # The whole deadline was burned waiting in the queue; running
            # now can only produce an answer nobody is waiting for.
            item.shed(SHED_DEADLINE_EXPIRED)
            return

        stage, probe = self.ladder.stage_for_request()
        requested = request.strategy or self._default_strategy
        effective = (
            stage if STAGES.index(stage) > STAGES.index(requested) else requested
        )

        if self._before_execute is not None:
            self._before_execute(item)
        try:
            result = matcher.match(
                request.values,
                k=request.k,
                min_similarity=request.min_similarity,
                strategy=effective,
                deadline=item.deadline,
                max_page_fetches=self.config.max_page_fetches,
            )
        except (DatabaseError, ValueError) as exc:
            if probe is not None:
                probe.record_failure()
            item.fail(type(exc).__name__, str(exc) or type(exc).__name__)
            return
        if probe is not None:
            # The probe recloses its breaker only if the trial ran clean
            # AND the queue has actually calmed down; otherwise re-trip
            # and wait out another cooldown.
            if not result.stats.degraded and self.ladder.probe_succeeded(
                self.queue.p95_wait()
            ):
                probe.record_success()
            else:
                probe.record_failure()
        item.complete(result, requested, effective, stage)

    def _watchdog_loop(self) -> None:
        while not self._workers_stop.wait(self.config.watchdog_interval_s):
            self._govern()

    def _govern(self) -> None:
        """One governor tick: degrade on p95, shed bulk past the limit."""
        p95 = self.queue.p95_wait()
        tripped = self.ladder.observe(p95)
        if tripped is not None:
            self.stats.record_stage_trip()
        if p95 >= self.config.shed_p95_s:
            victims = self.queue.shed_bulk(SHED_OVERLOAD)
            if victims:
                self.stats.record_bulk_shed_sweep()


__all__ = [
    "EngineFactory",
    "IdempotencyCache",
    "MatchServer",
    "ServeConfig",
    "ServeError",
    "ServeStats",
]
