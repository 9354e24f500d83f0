"""The serving layer: protocol, admission, ladder, lifecycle, end-to-end.

Unit machines (fake clocks, no sockets) first, then a real TCP server
over the paper's organization relation.  The binding contract under
test everywhere: a served ``match`` resolves to exactly one of
completed / degraded / shed / error, and a *completed* answer is
bit-identical to the offline matcher's.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.batch import BatchMatcher
from repro.core.matcher import FuzzyMatcher
from repro.core.resilience import Deadline, RetryPolicy
from repro.serve.admission import AdmissionQueue, ConnectionGate, WorkItem
from repro.serve.client import ClientTimeoutError, ServeClient
from repro.serve.lifecycle import (
    STAGES,
    DegradationLadder,
    Lifecycle,
    LifecycleError,
    WorkerHealth,
)
from repro.serve.protocol import (
    PRIORITY_BULK,
    PRIORITY_INTERACTIVE,
    SHED_DEADLINE_EXPIRED,
    SHED_DISPLACED,
    SHED_DRAINING,
    SHED_FRAME_TOO_LARGE,
    SHED_LOADING,
    SHED_OVERLOAD,
    SHED_PIPELINE_OVERFLOW,
    SHED_QUEUE_FULL,
    SHED_SLOW_FRAME,
    SHED_TOO_MANY_CONNECTIONS,
    FrameReader,
    ProtocolError,
    Request,
    SheddedError,
    decode_request,
    encode_line,
)
from repro.serve.server import IdempotencyCache, MatchServer, ServeConfig

from tests.conftest import ORG_INPUTS


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def make_item(priority=PRIORITY_INTERACTIVE, deadline=None, enqueued_at=0.0):
    request = Request(op="match", values=("x",), priority=priority)
    return WorkItem(request, deadline, enqueued_at)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_decode_match(self):
        request = decode_request(
            b'{"op":"match","id":"q7","values":["a",null,"c"],"k":2,'
            b'"min_similarity":0.5,"strategy":"basic","deadline_ms":100,'
            b'"priority":"bulk"}'
        )
        assert request.op == "match"
        assert request.id == "q7"
        assert request.values == ("a", None, "c")
        assert request.k == 2
        assert request.min_similarity == 0.5
        assert request.strategy == "basic"
        assert request.deadline_ms == 100.0
        assert request.priority == PRIORITY_BULK

    def test_defaults(self):
        request = decode_request('{"op":"match","values":["a"]}')
        assert request.id is None
        assert request.k is None
        assert request.strategy is None
        assert request.deadline_ms is None
        assert request.priority == PRIORITY_INTERACTIVE

    def test_non_match_ops_need_no_values(self):
        assert decode_request('{"op":"ping"}').op == "ping"
        assert decode_request('{"op":"stats"}').op == "stats"

    @pytest.mark.parametrize(
        "line",
        [
            "not json at all",
            '["op","match"]',
            '{"op":"nope"}',
            '{"op":"match"}',
            '{"op":"match","values":[]}',
            '{"op":"match","values":[1]}',
            '{"op":"match","values":["a"],"k":0}',
            '{"op":"match","values":["a"],"k":true}',
            '{"op":"match","values":["a"],"min_similarity":"hi"}',
            '{"op":"match","values":["a"],"strategy":"magic"}',
            '{"op":"match","values":["a"],"deadline_ms":0}',
            '{"op":"match","values":["a"],"deadline_ms":true}',
            '{"op":"match","values":["a"],"priority":"vip"}',
            '{"op":"match","values":["a"],"id":7}',
        ],
    )
    def test_rejects(self, line):
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_encode_line_is_one_line(self):
        raw = encode_line({"ok": True, "id": "x"})
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 1


# ----------------------------------------------------------------------
# Admission queue
# ----------------------------------------------------------------------


class TestAdmissionQueue:
    def test_interactive_dequeues_first(self):
        queue = AdmissionQueue(capacity=4)
        bulk = make_item(PRIORITY_BULK)
        inter = make_item(PRIORITY_INTERACTIVE)
        queue.offer(bulk)
        queue.offer(inter)
        assert queue.take(1.0) is inter
        assert queue.take(1.0) is bulk

    def test_capacity_sheds_with_queue_full(self):
        queue = AdmissionQueue(capacity=1)
        queue.offer(make_item())
        with pytest.raises(SheddedError) as info:
            queue.offer(make_item())
        assert info.value.reason == SHED_QUEUE_FULL

    def test_bulk_cannot_displace(self):
        queue = AdmissionQueue(capacity=1)
        queue.offer(make_item(PRIORITY_INTERACTIVE))
        with pytest.raises(SheddedError) as info:
            queue.offer(make_item(PRIORITY_BULK))
        assert info.value.reason == SHED_QUEUE_FULL

    def test_interactive_displaces_newest_bulk(self):
        queue = AdmissionQueue(capacity=2)
        old_bulk = make_item(PRIORITY_BULK)
        new_bulk = make_item(PRIORITY_BULK)
        queue.offer(old_bulk)
        queue.offer(new_bulk)
        inter = make_item(PRIORITY_INTERACTIVE)
        queue.offer(inter)  # displaces new_bulk, inherits its token
        assert new_bulk.done.is_set()
        assert new_bulk.shed_reason == SHED_DISPLACED
        assert queue.depth == 2
        assert queue.take(1.0) is inter
        assert queue.take(1.0) is old_bulk
        # The semaphore count matched the queue: no phantom third item.
        assert queue.take(0.05) is None

    def test_closed_refuses_offers_but_serves_takes(self):
        queue = AdmissionQueue(capacity=4)
        item = make_item()
        queue.offer(item)
        queue.close()
        with pytest.raises(SheddedError) as info:
            queue.offer(make_item())
        assert info.value.reason == SHED_DRAINING
        assert queue.take(1.0) is item

    def test_shed_bulk_resolves_items_and_self_corrects_tokens(self):
        queue = AdmissionQueue(capacity=8)
        bulks = [make_item(PRIORITY_BULK) for _ in range(3)]
        for item in bulks:
            queue.offer(item)
        victims = queue.shed_bulk(SHED_OVERLOAD)
        assert victims == bulks
        assert all(b.shed_reason == SHED_OVERLOAD for b in bulks)
        # Tokens for shed items surface as timeouts, not phantom items.
        assert queue.take(0.05) is None
        assert queue.depth == 0

    def test_max_depth_is_bounded_by_capacity(self):
        queue = AdmissionQueue(capacity=3)
        for _ in range(3):
            queue.offer(make_item(PRIORITY_BULK))
        queue.offer(make_item(PRIORITY_INTERACTIVE))  # displacement
        assert queue.max_depth <= 3

    def test_wait_accounting_feeds_p95(self):
        clock = FakeClock()
        queue = AdmissionQueue(capacity=4, clock=clock)
        item = make_item(enqueued_at=clock())
        queue.offer(item)
        clock.advance(0.5)
        taken = queue.take(1.0)
        assert taken.queue_wait == pytest.approx(0.5)
        assert queue.p95_wait() == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)


# ----------------------------------------------------------------------
# Lifecycle, worker health, degradation ladder
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_happy_path(self):
        lifecycle = Lifecycle()
        assert lifecycle.state == "loading"
        lifecycle.transition("serving")
        lifecycle.transition("draining")
        lifecycle.transition("stopped")
        assert lifecycle.is_stopped()

    def test_idempotent_and_illegal(self):
        lifecycle = Lifecycle()
        lifecycle.transition("loading")  # no-op
        with pytest.raises(LifecycleError):
            lifecycle.transition("draining")
        with pytest.raises(LifecycleError):
            lifecycle.transition("warp")

    def test_loading_may_stop_directly(self):
        lifecycle = Lifecycle()
        lifecycle.transition("stopped")
        assert lifecycle.is_stopped()


class TestWorkerHealth:
    def test_stuck_detection_needs_busy_and_silence(self):
        clock = FakeClock()
        health = WorkerHealth(stuck_after_s=1.0, clock=clock)
        health.beat("idle", busy=False)
        health.beat("busy", busy=True)
        clock.advance(2.0)
        assert health.stuck_workers() == ("busy",)
        health.beat("busy", busy=True)  # fresh beat: no longer silent
        assert health.stuck_workers() == ()

    def test_busy_count_and_deregister(self):
        health = WorkerHealth(stuck_after_s=1.0)
        health.beat("a", busy=True)
        health.beat("b", busy=False)
        assert health.workers() == 2
        assert health.busy_workers() == 1
        health.deregister("a")
        assert health.workers() == 1
        assert health.busy_workers() == 0


class TestDegradationLadder:
    def make(self, clock):
        return DegradationLadder(
            degrade_at_s=0.2, recover_at_s=0.05, cooldown_s=5.0, clock=clock
        )

    def test_calm_never_trips(self):
        ladder = self.make(FakeClock())
        assert ladder.observe(0.19) is None
        assert ladder.stage() == "osc"

    def test_trips_one_stage_per_dwell(self):
        clock = FakeClock()
        ladder = self.make(clock)
        assert ladder.observe(1.0) == "osc"
        assert ladder.stage() == "basic"
        # Still overloaded, but inside the dwell window: no cascade.
        assert ladder.observe(1.0) is None
        assert ladder.stage() == "basic"
        clock.advance(5.0)
        assert ladder.observe(1.0) == "basic"
        assert ladder.stage() == "naive"
        clock.advance(5.0)
        assert ladder.observe(1.0) is None  # nothing left to trip
        assert ladder.trips() == 2

    def test_probe_grant_and_reclose(self):
        clock = FakeClock()
        ladder = self.make(clock)
        ladder.observe(1.0)
        # Before cooldown: requests run at the degraded stage, no probe.
        stage, probe = ladder.stage_for_request()
        assert (stage, probe) == ("basic", None)
        clock.advance(5.0)
        stage, probe = ladder.stage_for_request()
        assert stage == "osc"
        assert probe is not None
        # Only one probe in flight.
        assert ladder.stage_for_request() == ("basic", None)
        assert ladder.probe_succeeded(0.01)
        probe.record_success()
        assert ladder.stage() == "osc"

    def test_failed_probe_retrips(self):
        clock = FakeClock()
        ladder = self.make(clock)
        ladder.observe(1.0)
        clock.advance(5.0)
        _stage, probe = ladder.stage_for_request()
        assert not ladder.probe_succeeded(0.5)
        probe.record_failure()
        assert ladder.stage() == "basic"
        # The re-trip restarts the cooldown: no probe until it elapses.
        assert ladder.stage_for_request() == ("basic", None)
        clock.advance(5.0)
        assert ladder.stage_for_request()[0] == "osc"

    def test_validation(self):
        with pytest.raises(ValueError):
            DegradationLadder(degrade_at_s=0.1, recover_at_s=0.2, cooldown_s=1.0)


# ----------------------------------------------------------------------
# End-to-end over TCP
# ----------------------------------------------------------------------


@pytest.fixture()
def org_engine(org_reference, org_weights, paper_config, org_eti):
    engine = BatchMatcher(org_reference, org_weights, paper_config, org_eti, jobs=2)
    yield engine
    engine.close()


@pytest.fixture()
def offline_matcher(org_reference, org_weights, paper_config, org_eti):
    return FuzzyMatcher(org_reference, org_weights, paper_config, org_eti)


@contextmanager
def running_server(engine, config=None, **kwargs):
    server = MatchServer(
        engine=engine,
        config=config if config is not None else ServeConfig(workers=2),
        **kwargs,
    )
    try:
        server.start()
        yield server
    finally:
        server.shutdown(drain_budget_s=1.0)


def match_in_thread(server, values, **kwargs):
    """Fire a match on its own connection+thread; returns (thread, box)."""
    host, port = server.address
    box = {}

    def run():
        try:
            with ServeClient(host, port) as client:
                box["response"] = client.match(values, **kwargs)
        except (ConnectionError, OSError) as exc:
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


class TestStartupFailureCleanup:
    """Sockets must not leak when start() or a connection handler fails."""

    def test_bind_failure_closes_listener_socket(self, monkeypatch):
        # Occupy a port so the server's bind fails with EADDRINUSE.
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        created = []
        real_socket = socket.socket

        def capturing_socket(*args, **kwargs):
            sock = real_socket(*args, **kwargs)
            created.append(sock)
            return sock

        monkeypatch.setattr(socket, "socket", capturing_socket)
        server = MatchServer(
            engine_factory=lambda: (None, None),
            config=ServeConfig(port=port),
        )
        try:
            with pytest.raises(OSError):
                server.start()
            assert created, "server never created its listener socket"
            assert all(sock.fileno() == -1 for sock in created), (
                "listener socket leaked after a failed start()"
            )
            assert server._listener is None
        finally:
            blocker.close()

    def test_dead_socket_closes_connection_and_releases_gate(self):
        server = MatchServer(engine_factory=lambda: (None, None))

        class FailingConn:
            def __init__(self):
                self.closed = False

            def settimeout(self, value):
                raise OSError("simulated dead socket")

            def close(self):
                self.closed = True

        conn = FailingConn()
        assert server.gate.admit("peer")
        server._conns.append(conn)
        server._handle_connection(conn, "peer")
        assert conn.closed, "connection socket leaked when the first read failed"
        assert conn not in server._conns
        assert server.gate.open_connections == 0


class TestServerEndToEnd:
    def test_completed_answers_are_bit_identical(self, org_engine, offline_matcher):
        config = ServeConfig(workers=2, default_deadline_ms=None)
        with running_server(org_engine, config) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                for values, _target in ORG_INPUTS:
                    offline = offline_matcher.match(values)
                    response = client.match(values)
                    assert response["outcome"] == "completed"
                    assert response["matches"] == [
                        {
                            "tid": m.tid,
                            "similarity": m.similarity,
                            "values": list(m.values),
                        }
                        for m in offline.matches
                    ]
                    assert response["stage"] == "osc"

    def test_ping_stats_and_protocol_errors(self, org_engine):
        with running_server(org_engine) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                ping = client.ping()
                assert ping["state"] == "serving"
                assert ping["workers"] == 2
                client.match(["Beoing Company", "Seattle", "WA", "98004"])
                stats = client.stats()
                assert stats["completed"] == 1
                assert stats["submitted"] == {"interactive": 1}
                bad = client.request({"op": "match"})  # no values
                assert bad["outcome"] == "error"
                assert bad["error_type"] == "ProtocolError"
                arity = client.match(["just-one-column"])
                assert arity["outcome"] == "error"
                assert arity["error_type"] == "ValueError"

    def test_deadline_spent_mid_query_degrades_on_the_server_clock(self, org_engine):
        """The matcher polls the request's own deadline on the server's
        injected clock: time that passes after the worker picked the
        request up comes out of the query, which returns degraded."""
        clock = FakeClock()
        config = ServeConfig(workers=1, default_deadline_ms=None)
        with running_server(
            org_engine,
            config,
            clock=clock,
            before_execute=lambda item: clock.advance(2.0),
        ) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                response = client.match(
                    ["Beoing Company", "Seattle", "WA", "98004"], deadline_ms=1000
                )
        assert response["outcome"] == "degraded"
        assert response["degraded_reason"] == "deadline"

    def test_queue_full_and_displacement(self, org_engine):
        gate = threading.Event()
        config = ServeConfig(
            workers=1, queue_capacity=1, default_deadline_ms=None
        )
        values = ["Beoing Company", "Seattle", "WA", "98004"]
        with running_server(
            org_engine, config, before_execute=lambda item: gate.wait(10)
        ) as server:
            t_busy, busy_box = match_in_thread(server, values)
            assert wait_until(lambda: server.health.busy_workers() == 1)
            t_bulk, bulk_box = match_in_thread(
                server, values, priority=PRIORITY_BULK
            )
            assert wait_until(lambda: server.queue.depth == 1)
            # Queue full + only bulk queued: interactive displaces it.
            t_inter, inter_box = match_in_thread(server, values)
            t_bulk.join(5)
            assert bulk_box["response"]["outcome"] == "shed"
            assert bulk_box["response"]["shed_reason"] == SHED_DISPLACED
            # Queue full again with an interactive queued: next arrival
            # (any class) is refused at the door.
            t_refused, refused_box = match_in_thread(
                server, values, priority=PRIORITY_BULK
            )
            t_refused.join(5)
            assert refused_box["response"]["shed_reason"] == SHED_QUEUE_FULL
            gate.set()
            t_busy.join(5)
            t_inter.join(5)
            assert busy_box["response"]["outcome"] == "completed"
            assert inter_box["response"]["outcome"] == "completed"
            assert server.queue.max_depth <= 1

    def test_deadline_expired_in_queue_is_shed(self, org_engine):
        gate = threading.Event()
        config = ServeConfig(workers=1, default_deadline_ms=None)
        values = ["Beoing Company", "Seattle", "WA", "98004"]
        with running_server(
            org_engine, config, before_execute=lambda item: gate.wait(10)
        ) as server:
            t_busy, busy_box = match_in_thread(server, values, deadline_ms=10_000)
            assert wait_until(lambda: server.health.busy_workers() == 1)
            t_doomed, doomed_box = match_in_thread(server, values, deadline_ms=30)
            assert wait_until(lambda: server.queue.depth == 1)
            time.sleep(0.08)  # burn the queued request's whole deadline
            gate.set()
            t_doomed.join(5)
            assert doomed_box["response"]["outcome"] == "shed"
            assert doomed_box["response"]["shed_reason"] == SHED_DEADLINE_EXPIRED
            t_busy.join(5)
            assert busy_box["response"]["outcome"] == "completed"

    def test_overload_downgrade_and_probe_recovery(self, org_engine):
        config = ServeConfig(
            workers=2,
            default_deadline_ms=None,
            stage_cooldown_s=0.1,
            degrade_p95_s=0.2,
            recover_p95_s=0.05,
        )
        values = ["Beoing Company", "Seattle", "WA", "98004"]
        with running_server(org_engine, config) as server:
            host, port = server.address
            # Simulate sustained queue pressure: the governor trips osc off.
            assert server.ladder.observe(1.0) == "osc"
            with ServeClient(host, port) as client:
                assert client.ping()["state"] == "degraded"
                degraded = client.match(values)
                assert degraded["outcome"] == "degraded"
                assert degraded["stage"] == "basic"
                assert degraded["strategy"] == "basic"
                assert degraded["degraded_reason"] == "overload_stage:basic"
                # Matches are still correct, just computed the cheaper way.
                assert degraded["matches"][0]["tid"] == 1
                time.sleep(0.15)  # past the cooldown: next request probes
                probe = client.match(values)
                assert probe["outcome"] == "completed"
                assert wait_until(lambda: server.ladder.stage() == "osc")
                assert client.ping()["state"] == "serving"

    def test_stuck_worker_surfaces_in_readiness_and_times_out(self, org_engine):
        gate = threading.Event()
        config = ServeConfig(
            workers=1,
            default_deadline_ms=None,
            stuck_after_s=0.05,
            response_grace_s=0.1,
        )
        values = ["Beoing Company", "Seattle", "WA", "98004"]
        with running_server(
            org_engine, config, before_execute=lambda item: gate.wait(10)
        ) as server:
            try:
                t_stuck, stuck_box = match_in_thread(
                    server, values, deadline_ms=50
                )
                assert wait_until(lambda: server.health.busy_workers() == 1)
                assert wait_until(
                    lambda: server.health.stuck_workers() == ("worker-0",)
                )
                host, port = server.address
                with ServeClient(host, port) as client:
                    assert client.ping()["state"] == "degraded"
                t_stuck.join(5)
                assert stuck_box["response"]["error_type"] == "StuckWorkerTimeout"
            finally:
                gate.set()

    def test_drain_finishes_admitted_work(self, org_engine):
        gate = threading.Event()
        config = ServeConfig(workers=1, default_deadline_ms=None)
        values = ["Beoing Company", "Seattle", "WA", "98004"]
        with running_server(
            org_engine, config, before_execute=lambda item: gate.wait(10)
        ) as server:
            t_running, running_box = match_in_thread(server, values)
            assert wait_until(lambda: server.health.busy_workers() == 1)
            t_queued, queued_box = match_in_thread(server, values)
            assert wait_until(lambda: server.queue.depth == 1)
            drainer = threading.Thread(
                target=server.shutdown, kwargs={"drain_budget_s": 5.0}
            )
            drainer.start()
            assert wait_until(lambda: server.lifecycle.state == "draining")
            gate.set()
            drainer.join(10)
            assert server.lifecycle.state == "stopped"
            t_running.join(5)
            t_queued.join(5)
            # Draining means FINISH admitted work, not abandon it.
            assert running_box["response"]["outcome"] == "completed"
            assert queued_box["response"]["outcome"] == "completed"

    def test_drain_budget_sheds_leftovers(self, org_engine):
        gate = threading.Event()
        config = ServeConfig(workers=1, default_deadline_ms=None)
        values = ["Beoing Company", "Seattle", "WA", "98004"]
        with running_server(
            org_engine, config, before_execute=lambda item: gate.wait(10)
        ) as server:
            try:
                t_running, _running_box = match_in_thread(server, values)
                assert wait_until(lambda: server.health.busy_workers() == 1)
                t_queued, queued_box = match_in_thread(server, values)
                assert wait_until(lambda: server.queue.depth == 1)
                server.shutdown(drain_budget_s=0.2)
                assert server.lifecycle.state == "stopped"
                t_queued.join(5)
                assert queued_box["response"]["outcome"] == "shed"
                assert queued_box["response"]["shed_reason"] == "drain_budget"
            finally:
                gate.set()

    def test_loading_state_pings_and_sheds(
        self, org_reference, org_weights, paper_config, org_eti
    ):
        release = threading.Event()
        engine = BatchMatcher(
            org_reference, org_weights, paper_config, org_eti, jobs=2
        )

        def factory():
            release.wait(10)
            return engine, None

        server = MatchServer(engine_factory=factory, config=ServeConfig(workers=1))
        starter = threading.Thread(target=server.start, daemon=True)
        starter.start()
        try:
            assert wait_until(lambda: server.address is not None)
            host, port = server.address
            with ServeClient(host, port) as client:
                assert client.ping()["state"] == "loading"
                shed = client.match(["Beoing Company", "Seattle", "WA", "98004"])
                assert shed["outcome"] == "shed"
                assert shed["shed_reason"] == SHED_LOADING
            release.set()
            starter.join(10)
            assert wait_until(lambda: server.lifecycle.state == "serving")
            with ServeClient(host, port) as client:
                done = client.match(["Beoing Company", "Seattle", "WA", "98004"])
                assert done["outcome"] == "completed"
        finally:
            release.set()
            server.shutdown(drain_budget_s=1.0)
            engine.close()

    def test_offers_after_close_shed_as_draining(self, org_engine):
        with running_server(org_engine) as server:
            server.queue.close()
            with pytest.raises(SheddedError) as info:
                server.queue.offer(make_item())
            assert info.value.reason == SHED_DRAINING

    def test_constructor_validation(self, org_engine):
        with pytest.raises(ValueError):
            MatchServer()
        with pytest.raises(ValueError):
            MatchServer(engine=org_engine, engine_factory=lambda: (org_engine, None))
        with pytest.raises(ValueError):
            ServeConfig(workers=0)
        with pytest.raises(ValueError):
            ServeConfig(degrade_p95_s=0.1, shed_p95_s=0.05)
        with pytest.raises(ValueError):
            ServeConfig(drain_budget_s=0)


class TestServeStagesConstant:
    def test_stage_order_matches_fallback_chain(self):
        assert STAGES == ("osc", "basic", "naive")

    def test_deadline_helper_round_trip(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert not deadline.expired()
        clock.advance(2.5)
        assert deadline.expired()
        assert deadline.remaining() == 0.0


# ----------------------------------------------------------------------
# Wire boundary hardening (raw sockets against a live server)
# ----------------------------------------------------------------------


@contextmanager
def raw_conn(server, timeout=5.0):
    """A raw client socket + buffered reader against a running server."""
    sock = socket.create_connection(server.address, timeout=timeout)
    sock.settimeout(timeout)
    reader = sock.makefile("rb")
    try:
        yield sock, reader
    finally:
        reader.close()
        sock.close()


def send_recv(sock, reader, raw):
    """Send raw bytes, decode the next response line."""
    sock.sendall(raw)
    return json.loads(reader.readline())


PING = b'{"op":"ping"}\n'


class TestWireBoundary:
    def test_blank_frames_are_skipped_and_connection_survives(self, org_engine):
        with running_server(org_engine) as server:
            with raw_conn(server) as (sock, reader):
                response = send_recv(sock, reader, b"\n   \n\t\n" + PING)
                assert response["ok"] is True

    @pytest.mark.parametrize(
        "frame",
        [
            b"\xc3(\n",  # invalid UTF-8
            b'["op","ping"]\n',  # JSON array, not an object
            b"not json at all\n",
        ],
    )
    def test_malformed_frame_is_typed_and_recoverable(self, org_engine, frame):
        with running_server(org_engine) as server:
            with raw_conn(server) as (sock, reader):
                response = send_recv(sock, reader, frame)
                assert response["outcome"] == "error"
                assert response["error_type"] == "ProtocolError"
                # The handler loop survived: the same connection still works.
                assert send_recv(sock, reader, PING)["ok"] is True

    def test_frame_split_across_single_byte_writes(self, org_engine):
        with running_server(org_engine) as server:
            with raw_conn(server) as (sock, reader):
                for i in range(len(PING)):
                    sock.sendall(PING[i : i + 1])
                assert json.loads(reader.readline())["ok"] is True

    def test_oversize_frame_sheds_then_recovers(self, org_engine):
        config = ServeConfig(workers=2, max_frame_bytes=256)
        with running_server(org_engine, config) as server:
            with raw_conn(server) as (sock, reader):
                huge = b'{"op":"ping","pad":"' + b"x" * 1024 + b'"}\n'
                response = send_recv(sock, reader, huge)
                assert response["outcome"] == "shed"
                assert response["shed_reason"] == SHED_FRAME_TOO_LARGE
                # The line's end was found, so the connection continues.
                assert send_recv(sock, reader, PING)["ok"] is True
            assert server.stats.as_dict()["shed_reasons"][SHED_FRAME_TOO_LARGE] == 1

    def test_unterminated_oversize_disconnects(self, org_engine):
        config = ServeConfig(
            workers=2, max_frame_bytes=128, oversize_drain_bytes=128
        )
        with running_server(org_engine, config) as server:
            with raw_conn(server) as (sock, reader):
                sock.sendall(b"x" * 4096)  # no newline, past cap + drain budget
                response = json.loads(reader.readline())
                assert response["shed_reason"] == SHED_FRAME_TOO_LARGE
                assert reader.readline() == b""  # server closed the connection

    def test_slowloris_is_disconnected_within_deadline(self, org_engine):
        config = ServeConfig(workers=2, frame_timeout_s=0.2)
        with running_server(org_engine, config) as server:
            with raw_conn(server) as (sock, reader):
                sock.sendall(b"{")  # first byte arms the frame deadline
                started = time.monotonic()
                response = json.loads(reader.readline())
                elapsed = time.monotonic() - started
                assert response["shed_reason"] == SHED_SLOW_FRAME
                assert reader.readline() == b""
                assert elapsed < 3.0

    def test_pipeline_overflow_disconnects(self, org_engine):
        config = ServeConfig(workers=2, max_pipelined_frames=2)
        with running_server(org_engine, config) as server:
            with raw_conn(server) as (sock, reader):
                sock.sendall(PING * 40)
                reasons = []
                while True:
                    line = reader.readline()
                    if not line:
                        break
                    reasons.append(json.loads(line).get("shed_reason"))
                assert SHED_PIPELINE_OVERFLOW in reasons

    def test_idle_connection_is_closed_quietly(self, org_engine):
        config = ServeConfig(workers=2, idle_timeout_s=0.2)
        with running_server(org_engine, config) as server:
            with raw_conn(server) as (sock, reader):
                assert reader.readline() == b""  # no shed line: just a close

    def test_per_peer_connection_limit(self, org_engine):
        config = ServeConfig(workers=2, max_connections_per_peer=1)
        with running_server(org_engine, config) as server:
            with raw_conn(server) as (sock1, reader1):
                assert send_recv(sock1, reader1, PING)["ok"] is True
                with raw_conn(server) as (sock2, reader2):
                    refusal = json.loads(reader2.readline())
                    assert refusal["shed_reason"] == SHED_TOO_MANY_CONNECTIONS
                    assert reader2.readline() == b""
                # The admitted connection is unaffected by the refusal.
                assert send_recv(sock1, reader1, PING)["ok"] is True
            # Closing the admitted connection frees the slot.
            assert wait_until(lambda: server.gate.open_connections == 0)
            with raw_conn(server) as (sock3, reader3):
                assert send_recv(sock3, reader3, PING)["ok"] is True

    def test_dead_on_arrival_deadline_is_shed(self, org_engine):
        with running_server(org_engine) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                response = client.match(
                    ["Boeing Company", "Seattle", "WA", "98004"],
                    deadline_ms=0.001,
                )
        assert response["outcome"] == "shed"
        assert response["shed_reason"] == SHED_DEADLINE_EXPIRED

    def test_idempotent_replay_serves_cached_response(self, org_engine):
        with running_server(org_engine) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                first = client.match(
                    ["Beoing Company", "Seattle", "WA", "98004"],
                    idempotency_key="dup-1",
                )
                second = client.match(
                    ["Beoing Company", "Seattle", "WA", "98004"],
                    idempotency_key="dup-1",
                )
            assert first == second
            assert first["outcome"] == "completed"
            assert server.stats.as_dict()["idempotent_replays"] == 1


class TestFrameReaderUnit:
    def _pair(self, **kwargs):
        left, right = socket.socketpair()
        left.settimeout(5.0)
        return left, right, FrameReader(left, **kwargs)

    def test_coalesced_and_split_frames(self):
        left, right, reader = self._pair()
        try:
            right.sendall(b'{"a":1}\n{"b":2}\n{"c"')
            assert reader.next_frame() == b'{"a":1}'
            assert reader.next_frame() == b'{"b":2}'
            right.sendall(b':3}\n')
            assert reader.next_frame() == b'{"c":3}'
        finally:
            left.close()
            right.close()

    def test_eof_yields_trailing_unterminated_line(self):
        left, right, reader = self._pair()
        try:
            right.sendall(b'{"tail":true}')
            right.close()
            assert reader.next_frame() == b'{"tail":true}'
            assert reader.next_frame() is None
        finally:
            left.close()

    def test_validation(self):
        left, right = socket.socketpair()
        try:
            with pytest.raises(ValueError):
                FrameReader(left, max_frame_bytes=0)
            with pytest.raises(ValueError):
                FrameReader(left, frame_timeout_s=0)
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# Resilient client (fake servers with scripted behaviour)
# ----------------------------------------------------------------------


class FakeWireServer:
    """A listener that runs one scripted handler per accepted connection."""

    def __init__(self, handlers):
        self.handlers = list(handlers)
        self.lines = []
        self.stop = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        for handler in self.handlers:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                handler(self, conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self.stop.set()
        self._listener.close()
        self._thread.join(timeout=5.0)


def _read_line(server, conn):
    """Read one request line into ``server.lines``."""
    with conn.makefile("rb") as reader:
        server.lines.append(reader.readline())


class TestServeClientResilience:
    def test_silent_server_raises_typed_timeout(self):
        def silent(server, conn):
            server.stop.wait(10.0)  # accept, then never respond

        with FakeWireServer([silent]) as fake:
            host, port = fake.address
            client = ServeClient(host, port, timeout_s=0.3)
            try:
                with pytest.raises(ClientTimeoutError) as info:
                    client.ping()
                # Still an OSError/TimeoutError for legacy call sites.
                assert isinstance(info.value, TimeoutError)
            finally:
                client.close()

    def test_retry_reconnects_and_reuses_idempotency_key(self):
        def drop_after_read(server, conn):
            _read_line(server, conn)  # connection closes on return

        def answer(server, conn):
            with conn.makefile("rb") as reader:
                server.lines.append(reader.readline())
                conn.sendall(b'{"outcome":"completed","ok":true}\n')

        with FakeWireServer([drop_after_read, answer]) as fake:
            host, port = fake.address
            policy = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.002)
            client = ServeClient(host, port, timeout_s=2.0, retry=policy)
            try:
                response = client.match(["x"])
            finally:
                client.close()
        assert response["outcome"] == "completed"
        assert len(fake.lines) == 2
        keys = [json.loads(line)["idempotency_key"] for line in fake.lines]
        assert keys[0] == keys[1]  # the retransmission reused the key

    def test_retryable_shed_is_retried_on_one_connection(self):
        def shed_then_answer(server, conn):
            with conn.makefile("rb") as reader:
                server.lines.append(reader.readline())
                conn.sendall(
                    b'{"outcome":"shed","shed_reason":"queue_full","ok":false}\n'
                )
                server.lines.append(reader.readline())
                conn.sendall(b'{"outcome":"completed","ok":true}\n')

        with FakeWireServer([shed_then_answer]) as fake:
            host, port = fake.address
            policy = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.002)
            client = ServeClient(host, port, timeout_s=2.0, retry=policy)
            try:
                response = client.match(["x"])
            finally:
                client.close()
        assert response["outcome"] == "completed"
        assert len(fake.lines) == 2

    def test_without_retry_shed_is_returned_as_is(self):
        def shed_once(server, conn):
            with conn.makefile("rb") as reader:
                server.lines.append(reader.readline())
                conn.sendall(
                    b'{"outcome":"shed","shed_reason":"queue_full","ok":false}\n'
                )

        with FakeWireServer([shed_once]) as fake:
            host, port = fake.address
            client = ServeClient(host, port, timeout_s=2.0)
            try:
                response = client.match(["x"])
                # No retry policy => no auto idempotency key either.
                assert b"idempotency_key" not in fake.lines[0]
            finally:
                client.close()
        assert response["outcome"] == "shed"


# ----------------------------------------------------------------------
# Boundary machinery units
# ----------------------------------------------------------------------


class TestConnectionGate:
    def test_per_peer_and_global_caps(self):
        gate = ConnectionGate(max_connections=3, max_per_peer=2)
        assert gate.admit("a")
        assert gate.admit("a")
        assert not gate.admit("a")  # per-peer cap
        assert gate.admit("b")
        assert not gate.admit("c")  # global cap
        gate.release("a")
        assert gate.admit("c")
        assert gate.open_connections == 3

    def test_release_unknown_peer_is_harmless(self):
        gate = ConnectionGate(max_connections=2, max_per_peer=2)
        gate.release("ghost")
        assert gate.open_connections == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ConnectionGate(max_connections=0, max_per_peer=1)
        with pytest.raises(ValueError):
            ConnectionGate(max_connections=1, max_per_peer=0)


class TestIdempotencyCache:
    def test_lru_eviction(self):
        cache = IdempotencyCache(capacity=2)
        cache.put("a", {"n": 1})
        cache.put("b", {"n": 2})
        assert cache.get("a") == {"n": 1}  # refreshes "a"
        cache.put("c", {"n": 3})  # evicts "b", the least recent
        assert cache.get("b") is None
        assert cache.get("a") == {"n": 1}
        assert cache.get("c") == {"n": 3}
        assert len(cache) == 2


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.01, multiplier=2.0, max_delay=0.05
        )
        delays = [policy.delay(i) for i in range(5)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_jitter_is_seeded_and_bounded(self):
        import random

        policy = RetryPolicy(base_delay=0.01, jitter=0.5)
        a = [policy.delay(0, rng=random.Random(7)) for _ in range(3)]
        b = [policy.delay(0, rng=random.Random(7)) for _ in range(3)]
        assert a == b  # same seed, same jitter
        assert all(0.005 <= d <= 0.01 for d in a)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_storage_packages_no_longer_reexport_it(self):
        import repro.db
        from repro.db import pager

        assert not hasattr(pager, "RetryPolicy")
        assert not hasattr(repro.db, "RetryPolicy")
