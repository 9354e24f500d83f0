"""The serve wire protocol: newline-delimited JSON over TCP.

One request per line, one response per line, UTF-8.  The protocol is
deliberately boring — any language's socket + JSON library is a client —
because the interesting contract is semantic, not syntactic: every
``match`` request resolves to exactly one of the overload trichotomy's
outcomes, and the response says which.

Request (``op`` selects the verb)::

    {"op": "match", "id": "q1", "values": ["Beoing Company", "Seattle",
     "WA", "98004"], "k": 1, "min_similarity": 0.0, "strategy": "osc",
     "deadline_ms": 100.0, "priority": "interactive"}
    {"op": "ping"}
    {"op": "stats"}
    {"op": "stats", "sections": ["serve", "metrics", "traces"]}

Response ``outcome`` values for ``op=match``:

- ``"completed"`` — exact answer, bit-identical to the offline matcher.
- ``"degraded"`` — best-effort answer: the request's deadline ran out
  mid-query, a storage fault forced the fallback chain, or the server's
  overload ladder forced a cheaper strategy than requested.
  ``degraded_reason`` says which; ``stage`` is the ladder stage it ran
  at.
- ``"shed"`` — the server refused to spend compute on the request.
  ``shed_reason`` is one of the ``SHED_*`` constants below; no partial
  answer is attached, the engine was never touched.
- ``"error"`` — a typed failure (``error_type``/``error``), either a
  malformed request (:class:`ProtocolError`) or a
  :class:`~repro.db.errors.DatabaseError` the resilience layer could not
  absorb.

Every response also carries the server's lifecycle ``state`` and current
degradation ``stage``, so clients see overload coming before they are
shed.

The byte boundary itself is defended by :class:`FrameReader`: per-frame
read deadlines, idle timeouts, a hard frame-size cap enforced during the
read, and a pipelining cap — every violation maps to a ``SHED_*`` reason
so hostile peers get the same typed vocabulary as overload does.  A
``match`` request may carry a client-generated ``idempotency_key``; the
server answers a retransmission of the same key from a bounded response
cache instead of running the engine twice.
"""

from __future__ import annotations

import json
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.config import check_query_overrides
from repro.core.matcher import MatchResult

#: Protocol verbs.
OPS = ("match", "ping", "stats")

#: Sections a ``stats`` request may select.  ``serve`` is the server's
#: counter summary, ``metrics`` the merged registry snapshot (latency
#: histograms, cache/kernel counters), ``traces`` the recent/slow trace
#: capture.  Omitting ``sections`` yields ``("serve", "metrics")`` —
#: traces are opt-in because they are the bulky part.
STATS_SECTIONS = ("serve", "metrics", "traces")

#: Hard cap on the ``sections`` array length, so a hostile request
#: cannot make the server chew through an arbitrarily long list.
MAX_STATS_SECTIONS = 8

#: Request priority classes, best first.  ``interactive`` requests are
#: dequeued before ``bulk`` ones and may displace queued bulk work when
#: the admission queue is full.
PRIORITY_INTERACTIVE = "interactive"
PRIORITY_BULK = "bulk"
PRIORITIES = (PRIORITY_INTERACTIVE, PRIORITY_BULK)

#: Shed reasons (the typed vocabulary of refusal).
SHED_QUEUE_FULL = "queue_full"
"""The bounded admission queue was at capacity and nothing lower-priority
could be displaced."""
SHED_DISPLACED = "displaced"
"""A queued bulk request was evicted to admit an interactive one."""
SHED_DEADLINE_EXPIRED = "deadline_expired"
"""The request's deadline passed while it waited in the queue; the
engine was never invoked."""
SHED_OVERLOAD = "overload"
"""Queue-wait p95 crossed the shed threshold and bulk work was dropped."""
SHED_DRAINING = "draining"
"""The server is draining (SIGTERM received); new work is refused."""
SHED_DRAIN_BUDGET = "drain_budget"
"""The request was still queued when the drain budget ran out."""
SHED_LOADING = "loading"
"""The server is still building/loading its warehouse; retry shortly."""
SHED_FRAME_TOO_LARGE = "frame_too_large"
"""A request line exceeded ``max_frame_bytes``.  The overflow was drained
from the socket without being buffered and the frame was refused; the
connection stays usable when the frame's end was found within bounds."""
SHED_SLOW_FRAME = "slow_frame"
"""A partial frame stalled past the per-frame read deadline (the
slowloris pattern); the connection is closed after this response."""
SHED_PIPELINE_OVERFLOW = "pipeline_overflow"
"""More unanswered pipelined frames than the per-connection cap; the
connection is closed after this response."""
SHED_TOO_MANY_CONNECTIONS = "too_many_connections"
"""The global or per-peer connection limit was reached; the connection
was refused before any request bytes were read."""

SHED_REASONS = (
    SHED_QUEUE_FULL,
    SHED_DISPLACED,
    SHED_DEADLINE_EXPIRED,
    SHED_OVERLOAD,
    SHED_DRAINING,
    SHED_DRAIN_BUDGET,
    SHED_LOADING,
    SHED_FRAME_TOO_LARGE,
    SHED_SLOW_FRAME,
    SHED_PIPELINE_OVERFLOW,
    SHED_TOO_MANY_CONNECTIONS,
)

#: Shed reasons a client may retry against the *same* server after
#: backing off; the rest are either per-request verdicts (deadline) or
#: tell the client to go elsewhere (draining).
RETRYABLE_SHED_REASONS = (SHED_QUEUE_FULL, SHED_OVERLOAD, SHED_LOADING)


class ServeError(Exception):
    """Base class for serving-layer errors."""


class ProtocolError(ServeError):
    """A request line could not be parsed or validated."""


class SheddedError(ServeError):
    """The server refused a request instead of queueing it unboundedly.

    ``reason`` is one of the ``SHED_*`` constants — clients branch on it
    (retry with backoff on ``queue_full``/``overload``, fail over on
    ``draining``), never on message text.
    """

    def __init__(self, reason: str, message: str = "") -> None:
        super().__init__(message or reason)
        self.reason = reason


class FrameError(ServeError):
    """A wire-boundary violation caught while framing inbound bytes.

    ``recoverable`` says whether the connection is still usable after the
    offending frame was refused (the handler sends a typed shed response
    either way, then continues or disconnects accordingly).
    """

    def __init__(self, message: str, recoverable: bool) -> None:
        super().__init__(message)
        self.recoverable = recoverable


class FrameTooLargeError(FrameError):
    """A single request line exceeded ``max_frame_bytes``."""


class SlowFrameError(FrameError):
    """A partial frame stalled past the per-frame read deadline."""

    def __init__(self, message: str) -> None:
        super().__init__(message, recoverable=False)


class PipelineOverflowError(FrameError):
    """A connection pipelined more unanswered frames than its cap."""

    def __init__(self, message: str) -> None:
        super().__init__(message, recoverable=False)


class FrameReader:
    """Newline framing over a socket with defense-in-depth read limits.

    The undefended predecessor (``conn.makefile("rb")`` + line iteration)
    would buffer an arbitrarily long line in memory and block on a stalled
    peer forever.  This reader enforces, per connection:

    - ``max_frame_bytes``: a hard cap on one request line, checked *while*
      reading.  An oversized line is drained from the socket (up to
      ``oversize_drain_bytes``, never buffered) looking for its newline;
      :class:`FrameTooLargeError` is raised in frame order, recoverable
      when the line's end was found so the connection can continue.
    - ``frame_timeout_s``: once the first byte of a frame arrives, the
      whole line must arrive within this budget or
      :class:`SlowFrameError` is raised — a 1 byte/s slowloris peer is
      disconnected after this deadline, not held open indefinitely.
    - ``idle_timeout_s``: a connection with no partial frame that stays
      silent this long is treated as gone (:meth:`next_frame` returns
      ``None``, like EOF).
    - ``max_pipelined_frames``: a cap on decoded-but-unanswered frames
      buffered ahead of the handler; beyond it
      :class:`PipelineOverflowError` is raised.

    Memory stays bounded by ``max_frame_bytes`` plus one receive chunk
    regardless of peer behaviour.  ``clock`` is injectable for tests.
    """

    _RECV_CHUNK = 65536

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_frame_bytes: int = 1 << 20,
        frame_timeout_s: float = 10.0,
        idle_timeout_s: float = 300.0,
        max_pipelined_frames: int = 32,
        oversize_drain_bytes: int = 1 << 20,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_frame_bytes < 1:
            raise ValueError("max_frame_bytes must be >= 1")
        if frame_timeout_s <= 0 or idle_timeout_s <= 0:
            raise ValueError("frame/idle timeouts must be positive")
        if max_pipelined_frames < 1:
            raise ValueError("max_pipelined_frames must be >= 1")
        if oversize_drain_bytes < 0:
            raise ValueError("oversize_drain_bytes must be >= 0")
        self._sock = sock
        self.max_frame_bytes = max_frame_bytes
        self.frame_timeout_s = frame_timeout_s
        self.idle_timeout_s = idle_timeout_s
        self.max_pipelined_frames = max_pipelined_frames
        self.oversize_drain_bytes = oversize_drain_bytes
        self._clock = clock
        self._buffer = bytearray()
        # ``None`` entries mark oversized frames, reported in arrival order.
        self._frames: deque[bytes | None] = deque()
        self._frame_deadline: float | None = None
        self._eof = False

    def next_frame(self) -> bytes | None:
        """Block for the next complete line (without its newline).

        Returns ``None`` on EOF or idle timeout.  Raises a
        :class:`FrameError` subclass on a boundary violation and lets the
        socket's own ``OSError`` (reset, close) propagate.
        """
        while True:
            if self._frames:
                frame = self._frames.popleft()
                if frame is None:
                    raise FrameTooLargeError(
                        f"frame exceeds max_frame_bytes={self.max_frame_bytes}",
                        recoverable=True,
                    )
                return frame
            if self._eof:
                return None
            self._fill()

    def _fill(self) -> None:
        """One receive step: read, split into frames, enforce the limits."""
        if self._frame_deadline is not None:
            budget = self._frame_deadline - self._clock()
            if budget <= 0:
                raise SlowFrameError(
                    f"partial frame stalled past {self.frame_timeout_s}s"
                )
            self._sock.settimeout(budget)
        else:
            self._sock.settimeout(self.idle_timeout_s)
        try:
            chunk = self._sock.recv(self._RECV_CHUNK)
        except TimeoutError:
            if self._frame_deadline is not None:
                raise SlowFrameError(
                    f"partial frame stalled past {self.frame_timeout_s}s"
                ) from None
            self._eof = True  # idle with no request in flight: quiet close
            return
        if not chunk:
            self._eof = True
            if self._buffer:  # unterminated trailing line still answers
                self._queue_frame(bytes(self._buffer))
                self._buffer.clear()
                self._frame_deadline = None
            return
        if self._frame_deadline is None:
            self._frame_deadline = self._clock() + self.frame_timeout_s
        self._buffer.extend(chunk)
        self._split()
        if len(self._buffer) > self.max_frame_bytes:
            self._drain_oversize()

    def _split(self) -> None:
        """Move complete lines out of the byte buffer, in arrival order."""
        extracted = False
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                break
            self._queue_frame(bytes(self._buffer[:newline]))
            del self._buffer[: newline + 1]
            extracted = True
        if not self._buffer:
            self._frame_deadline = None
        elif extracted:  # the partial tail is a fresh frame: fresh budget
            self._frame_deadline = self._clock() + self.frame_timeout_s

    def _queue_frame(self, frame: bytes) -> None:
        """Queue one complete frame (or its oversize marker)."""
        self._frames.append(frame if len(frame) <= self.max_frame_bytes else None)
        if len(self._frames) > self.max_pipelined_frames:
            raise PipelineOverflowError(
                f"more than max_pipelined_frames={self.max_pipelined_frames} "
                "unanswered frames"
            )

    def _drain_oversize(self) -> None:
        """Discard an over-cap partial line while hunting for its end.

        Keeps reading (and throwing away) up to ``oversize_drain_bytes``
        within a fresh frame budget.  Finding the newline queues an
        oversize marker and preserves the bytes after it, so the
        connection recovers; hitting the drain cap, the deadline, or EOF
        gives up with a non-recoverable :class:`FrameTooLargeError`.
        """
        # The over-cap partial already in the buffer counts against the
        # drain budget — a peer that stops sending mid-flood must not be
        # granted a fresh allowance to wait out.
        drained = len(self._buffer)
        self._buffer.clear()
        deadline = self._clock() + self.frame_timeout_s
        while drained <= self.oversize_drain_bytes:
            budget = deadline - self._clock()
            if budget <= 0:
                break
            self._sock.settimeout(budget)
            try:
                chunk = self._sock.recv(self._RECV_CHUNK)
            except TimeoutError:
                break
            if not chunk:
                self._eof = True
                break
            newline = chunk.find(b"\n")
            if newline >= 0:
                self._frames.append(None)  # the oversized frame, in order
                self._buffer.extend(chunk[newline + 1 :])
                self._frame_deadline = (
                    self._clock() + self.frame_timeout_s if self._buffer else None
                )
                self._split()
                return
            drained += len(chunk)
        raise FrameTooLargeError(
            f"frame exceeds max_frame_bytes={self.max_frame_bytes} "
            "and its end was not found within the drain budget",
            recoverable=False,
        )


@dataclass(frozen=True)
class Request:
    """One decoded, validated request line."""

    op: str
    id: str | None = None
    values: tuple[str | None, ...] = ()
    k: int | None = None
    min_similarity: float | None = None
    strategy: str | None = None
    deadline_ms: float | None = None
    priority: str = PRIORITY_INTERACTIVE
    idempotency_key: str | None = None
    sections: tuple[str, ...] | None = None
    """For ``op=stats``: which payload sections to return (validated
    against :data:`STATS_SECTIONS`); ``None`` means the default set."""


#: Idempotency keys are client-generated opaque tokens; cap their length
#: so the server's dedup cache cannot be ballooned by one hostile client.
MAX_IDEMPOTENCY_KEY_CHARS = 128


def _decode_sections(payload: dict[str, Any]) -> tuple[str, ...] | None:
    """Validate a stats request's ``sections`` field (the fuzz surface).

    Every entry must be a known section name; the list is bounded and
    deduplicated preserving order.  ``None`` (absent) selects the
    default set downstream.
    """
    raw_sections = payload.get("sections")
    if raw_sections is None:
        return None
    if not isinstance(raw_sections, list) or not raw_sections:
        raise ProtocolError("'sections' must be a non-empty array")
    if len(raw_sections) > MAX_STATS_SECTIONS:
        raise ProtocolError(
            f"'sections' may list at most {MAX_STATS_SECTIONS} entries"
        )
    seen: list[str] = []
    for section in raw_sections:
        if not isinstance(section, str) or section not in STATS_SECTIONS:
            raise ProtocolError(
                f"'sections' entries must be one of {STATS_SECTIONS}, "
                f"got {section!r}"
            )
        if section not in seen:
            seen.append(section)
    return tuple(seen)


def decode_request(line: str | bytes) -> Request:
    """Parse and validate one request line; raises :class:`ProtocolError`.

    Invalid UTF-8 is a protocol error like any other malformed input —
    ``json.loads`` raises :class:`UnicodeDecodeError` (not
    ``JSONDecodeError``) for it, and letting that escape used to kill the
    server's handler thread without a response.
    """
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"request is not valid UTF-8 JSON: {exc}") from exc
    except RecursionError as exc:
        # A pathologically nested document (fuzz finding): the stdlib
        # parser recurses per nesting level; fail typed, not with a
        # blown stack.
        raise ProtocolError("request JSON is nested too deeply") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(f"op must be one of {OPS}, got {op!r}")
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, str):
        raise ProtocolError("id must be a string when present")
    if op == "stats":
        return Request(
            op=op, id=request_id, sections=_decode_sections(payload)
        )
    if op != "match":
        return Request(op=op, id=request_id)

    raw_values = payload.get("values")
    if not isinstance(raw_values, list) or not raw_values:
        raise ProtocolError("match needs a non-empty 'values' array")
    for cell in raw_values:
        if cell is not None and not isinstance(cell, str):
            raise ProtocolError("'values' entries must be strings or null")
    k = payload.get("k")
    if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
        raise ProtocolError("k must be an integer")
    min_similarity = payload.get("min_similarity")
    if min_similarity is not None:
        if not isinstance(min_similarity, (int, float)) or isinstance(
            min_similarity, bool
        ):
            raise ProtocolError("min_similarity must be a number")
        min_similarity = float(min_similarity)
    try:
        check_query_overrides(
            1 if k is None else k, 0.0 if min_similarity is None else min_similarity
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    strategy = payload.get("strategy")
    if strategy is not None and strategy not in ("naive", "basic", "osc"):
        raise ProtocolError(
            f"strategy must be 'naive', 'basic', or 'osc', got {strategy!r}"
        )
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if (
            not isinstance(deadline_ms, (int, float))
            or isinstance(deadline_ms, bool)
            or deadline_ms <= 0
        ):
            raise ProtocolError("deadline_ms must be a positive number")
        deadline_ms = float(deadline_ms)
    priority = payload.get("priority", PRIORITY_INTERACTIVE)
    if priority not in PRIORITIES:
        raise ProtocolError(
            f"priority must be one of {PRIORITIES}, got {priority!r}"
        )
    idempotency_key = payload.get("idempotency_key")
    if idempotency_key is not None:
        if (
            not isinstance(idempotency_key, str)
            or not idempotency_key
            or len(idempotency_key) > MAX_IDEMPOTENCY_KEY_CHARS
        ):
            raise ProtocolError(
                "idempotency_key must be a non-empty string of at most "
                f"{MAX_IDEMPOTENCY_KEY_CHARS} characters"
            )
    return Request(
        op="match",
        id=request_id,
        values=tuple(raw_values),
        k=k,
        min_similarity=min_similarity,
        strategy=strategy,
        deadline_ms=deadline_ms,
        priority=priority,
        idempotency_key=idempotency_key,
    )


def encode_line(payload: dict[str, Any]) -> bytes:
    """One response (or request) as a newline-terminated JSON line."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def result_response(
    request: Request,
    result: MatchResult,
    requested_strategy: str,
    effective_strategy: str,
    stage: str,
    state: str,
    queue_wait_ms: float,
) -> dict[str, Any]:
    """The response for a request the engine actually ran.

    ``outcome`` is ``"degraded"`` when the matcher flagged the result
    degraded (budget/fallback), when the overload ladder forced a
    cheaper strategy than the client asked for, or — for a faulted query
    under per-item isolation — ``"error"`` with the typed error class.
    """
    if result.failed:
        return {
            "id": request.id,
            "ok": False,
            "outcome": "error",
            "error_type": result.error_type,
            "error": result.error,
            "state": state,
            "stage": stage,
            "queue_wait_ms": round(queue_wait_ms, 3),
        }
    downgraded = effective_strategy != requested_strategy
    degraded = result.stats.degraded or downgraded
    reason = result.stats.degraded_reason
    if reason is None and downgraded:
        reason = f"overload_stage:{effective_strategy}"
    response: dict[str, Any] = {
        "id": request.id,
        "ok": True,
        "outcome": "degraded" if degraded else "completed",
        "matches": [
            {
                "tid": match.tid,
                "similarity": match.similarity,
                "values": list(match.values),
            }
            for match in result.matches
        ],
        "strategy": result.stats.strategy,
        "state": state,
        "stage": stage,
        "queue_wait_ms": round(queue_wait_ms, 3),
    }
    if degraded:
        response["degraded_reason"] = reason
    return response


def shed_response(
    request_id: str | None, reason: str, state: str, stage: str
) -> dict[str, Any]:
    """The response for a request the server refused to run.

    Every shed reply is built here, so the wire never carries a reason
    outside the documented ``SHED_REASONS``: any other ``reason`` raises
    ``ValueError``.
    """
    if reason not in SHED_REASONS:
        raise ValueError(f"undocumented shed reason {reason!r}")
    return {
        "id": request_id,
        "ok": False,
        "outcome": "shed",
        "error_type": "SheddedError",
        "shed_reason": reason,
        "state": state,
        "stage": stage,
    }


def error_response(
    request_id: str | None,
    error_type: str,
    message: str,
    state: str,
    stage: str,
) -> dict[str, Any]:
    """The response for a malformed or failed request."""
    return {
        "id": request_id,
        "ok": False,
        "outcome": "error",
        "error_type": error_type,
        "error": message,
        "state": state,
        "stage": stage,
    }
