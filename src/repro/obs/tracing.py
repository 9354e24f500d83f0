"""Span-tree tracing: per-request timing across serve, matcher, and db.

A trace is a tree of :class:`Span` objects rooted at the serve layer's
``request`` span.  Instrumented code opens children with
:func:`trace_span`, which consults a thread-local stack: when no trace
is active on the current thread the call returns a shared no-op
context, so library code can be instrumented unconditionally and pay
one attribute read when tracing is off.

The :class:`Tracer` owns retention: finished root spans land in a
bounded ring buffer (most recent N), traces over the slow threshold
are additionally kept in a slow-query log, and the slowest trace ever
seen is always retained — at sub-millisecond p50 the interesting
outlier would otherwise age out of both buffers long before an
operator asks for it.

Clocks are injected (defaulting to ``time.perf_counter``, the one
clock the determinism rule admits) so tests drive time by hand.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from types import TracebackType
from typing import Any, Callable

from repro.analysis.debuglock import make_lock

__all__ = ["Span", "Tracer", "render_span", "trace_span"]


class Span:
    """One timed node in a trace tree."""

    __slots__ = ("name", "start_s", "end_s", "annotations", "children")

    def __init__(self, name: str, start_s: float) -> None:
        self.name = name
        self.start_s = start_s
        self.end_s = start_s
        self.annotations: dict[str, Any] = {}
        self.children: list["Span"] = []

    @property
    def duration_s(self) -> float:
        """Wall time between open and close."""
        return self.end_s - self.start_s

    def annotate(self, **values: Any) -> None:
        """Attach key/value context (counts, reasons, byte sizes)."""
        self.annotations.update(values)

    def child(self, name: str, duration_s: float = 0.0, **values: Any) -> "Span":
        """Append a synthesized child (e.g. queue wait measured elsewhere)."""
        span = Span(name, self.start_s)
        span.end_s = self.start_s + duration_s
        span.annotations.update(values)
        self.children.append(span)
        return span

    def as_dict(self, origin_s: float | None = None) -> dict[str, Any]:
        """JSON-ready view with times relative to the trace origin."""
        origin = self.start_s if origin_s is None else origin_s
        node: dict[str, Any] = {
            "name": self.name,
            "start_ms": round((self.start_s - origin) * 1000.0, 3),
            "duration_ms": round(self.duration_s * 1000.0, 3),
        }
        if self.annotations:
            node["annotations"] = dict(self.annotations)
        if self.children:
            node["children"] = [c.as_dict(origin) for c in self.children]
        return node


def render_span(span: Span) -> list[str]:
    """The tree under ``span`` as text, one line per span, children indented.

    Each line carries the span's name, wall time and annotations — for a
    ``matcher`` subtree that is the per-stage account of one query (see
    docs/INTERNALS.md §8), which is what ``repro explain`` prints.
    """
    head = f"{span.name}  {span.duration_s * 1000.0:.3f} ms"
    notes = " ".join(
        f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in span.annotations.items()
    )
    lines = [f"{head}  {notes}" if notes else head]
    for child in span.children:
        lines.extend("  " + line for line in render_span(child))
    return lines


class _ThreadState(threading.local):
    """Per-thread active-trace state: the span stack and its clock."""

    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.clock: Callable[[], float] = time.perf_counter


_STATE = _ThreadState()


class _NullContext:
    """The shared do-nothing span context returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None

    def annotate(self, **values: Any) -> None:
        """Dropped — there is no active trace."""


_NULL = _NullContext()


class _SpanContext:
    """Context manager that opens a child span on the active trace."""

    __slots__ = ("_span",)

    def __init__(self, span: Span) -> None:
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        state = _STATE
        self._span.end_s = state.clock()
        if exc_type is not None:
            self._span.annotations["error"] = exc_type.__name__
        if state.stack and state.stack[-1] is self._span:
            state.stack.pop()

    def annotate(self, **values: Any) -> None:
        """Attach key/value context to the open span."""
        self._span.annotate(**values)


def trace_span(name: str, **values: Any) -> _SpanContext | _NullContext:
    """Open a child span under the current thread's active trace.

    With no trace active this returns a shared no-op context — the fast
    path for untraced requests is one empty-list check.
    """
    stack = _STATE.stack
    if not stack:
        return _NULL
    parent = stack[-1]
    span = Span(name, _STATE.clock())
    span.annotations.update(values)
    parent.children.append(span)
    stack.append(span)
    return _SpanContext(span)


class _RootContext:
    """Context manager for a root span; records into the tracer on exit."""

    __slots__ = ("_tracer", "_span", "_is_root")

    def __init__(self, tracer: "Tracer", span: Span, is_root: bool) -> None:
        self._tracer = tracer
        self._span = span
        self._is_root = is_root

    def __enter__(self) -> Span:
        return self._span

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        state = _STATE
        self._span.end_s = state.clock()
        if exc_type is not None:
            self._span.annotations["error"] = exc_type.__name__
        if state.stack and state.stack[-1] is self._span:
            state.stack.pop()
        if self._is_root:
            self._tracer.record(self._span)

    def annotate(self, **values: Any) -> None:
        """Attach key/value context to the root span."""
        self._span.annotate(**values)


class Tracer:
    """Retention policy for finished traces: ring, slow log, slowest-ever."""

    def __init__(
        self,
        *,
        ring_capacity: int = 64,
        slow_capacity: int = 16,
        slow_threshold_s: float = 0.050,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if ring_capacity < 1:
            raise ValueError(
                f"ring_capacity must be >= 1, got {ring_capacity}"
            )
        if slow_capacity < 1:
            raise ValueError(
                f"slow_capacity must be >= 1, got {slow_capacity}"
            )
        if slow_threshold_s <= 0:
            raise ValueError(
                f"slow_threshold_s must be positive, got {slow_threshold_s}"
            )
        self.slow_threshold_s = slow_threshold_s
        self._clock = clock
        self._lock = make_lock("Tracer._lock")
        self._ring: deque[Span] = deque(maxlen=ring_capacity)
        self._slow: deque[Span] = deque(maxlen=slow_capacity)
        self._slowest: Span | None = None

    def trace(self, name: str, **values: Any) -> _RootContext:
        """Open a trace root on this thread.

        If a trace is already active the new span joins it as a child
        (and is retained through its root) rather than starting a
        second recording.
        """
        state = _STATE
        state.clock = self._clock
        span = Span(name, self._clock())
        span.annotations.update(values)
        is_root = not state.stack
        if not is_root:
            state.stack[-1].children.append(span)
        state.stack.append(span)
        return _RootContext(self, span, is_root)

    def record(self, span: Span) -> None:
        """File one finished root span into the retention buffers."""
        with self._lock:
            self._ring.append(span)
            if span.duration_s >= self.slow_threshold_s:
                self._slow.append(span)
            if (
                self._slowest is None
                or span.duration_s > self._slowest.duration_s
            ):
                self._slowest = span

    def recent(self, limit: int | None = None) -> list[Span]:
        """Most recent finished traces, oldest first."""
        with self._lock:
            spans = list(self._ring)
        if limit is not None and limit >= 0:
            spans = spans[-limit:]
        return spans

    def slow(self) -> list[Span]:
        """Traces over the slow threshold, oldest first."""
        with self._lock:
            return list(self._slow)

    def slowest(self) -> Span | None:
        """The slowest trace ever recorded (never ages out)."""
        with self._lock:
            return self._slowest
