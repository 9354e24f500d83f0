"""Per-query deadlines, circuit breaking, and the degraded-mode contract.

The paper's setting is *online* data cleaning (§1): the fuzzy-match lookup
sits inside an interactive pipeline, where a query that stalls is as bad
as one that answers wrongly — §4.3.2's optimistic short circuiting exists
precisely to bound per-query work.  This module makes that bound
*enforceable under faults*:

- :class:`Deadline` is the one time limit: a query's deadline (optionally
  capped at a number of physical page fetches) is polled by the matcher.
  When it trips, the matcher does not raise: it returns the best-so-far
  top-K with ``MatchStats.degraded`` set and the reason recorded —
  partial answers are flagged, never silent.
- :class:`CircuitBreaker` watches the ETI path.  Repeated storage
  failures trip it open, after which queries skip straight to the
  index-free ``naive`` scan (the fallback chain ``osc → basic → naive``)
  until a half-open trial succeeds.
- :class:`ResiliencePolicy` bundles per-query limits, the breaker and the
  fallback switch; one policy is shared by every worker of a
  :class:`~repro.core.batch.BatchMatcher` so the breaker sees the whole
  fleet's failures.

The invariant the chaos suite enforces: under any injected fault
schedule, each query's outcome is exactly one of {bit-identical to the
clean run, flagged degraded with a reason, a typed
:class:`~repro.db.errors.DatabaseError`} — never a silently wrong answer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.analysis.debuglock import make_lock

if TYPE_CHECKING:
    from repro.db.pager import BufferPool, PoolStats

DEGRADED_DEADLINE = "deadline"
DEGRADED_PAGE_FETCHES = "page_fetches"


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff shared by storage retries and the client.

    Attempt ``n`` (0-based) sleeps ``min(base_delay * multiplier**n,
    max_delay)`` before retrying; ``max_attempts`` counts total tries, so
    ``max_attempts=1`` disables retrying.  The buffer pool retries
    :class:`~repro.db.errors.TransientIOError` under this policy, and the
    serve client retries connect / timeout / retryable-shed failures
    under it — one backoff implementation for both layers.

    ``jitter`` decorrelates retries from many peers: when the caller
    supplies a seeded ``rng``, up to ``jitter`` of each delay is randomly
    subtracted, so jittered delays stay within ``(1-jitter)·d .. d`` and
    the cap still holds.  Without an ``rng`` (or with ``jitter=0``) the
    delay is the exact deterministic cap formula — the storage layer's
    historical behaviour, which keeps the chaos suite reproducible.
    """

    max_attempts: int = 4
    base_delay: float = 0.001
    multiplier: float = 2.0
    max_delay: float = 0.05
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        capped = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if rng is None or self.jitter == 0.0:
            return capped
        return capped * (1.0 - self.jitter * rng.random())


class Deadline:
    """The one time limit: a fixed instant on a monotonic clock.

    Every wall-clock limit in the system — a query's per-call limit, a
    request's end-to-end deadline carried over the wire, a server's drain
    budget — is the same concept: "this work is worthless after instant
    T".  Construct with :meth:`after`, poll with :meth:`expired`, and hand
    the unspent remainder to a narrower scope with :meth:`remaining`
    (deadline *propagation*: a request that waited 80 ms of its 100 ms
    deadline in a queue has 20 ms left to compute in).

    The matcher polls a query's deadline with :meth:`exhausted`, which
    also enforces an optional cap on physical page reads: the copy
    :meth:`capped` returns is spent once the buffer pool has made
    ``max_page_fetches`` more reads than when the copy was made, i.e. at
    query start.  The pool is shared, so under parallel execution a query
    may be charged for a neighbour's reads — the bound stays
    conservative, which is the right direction for a limit.

    ``clock`` is injectable for deterministic tests; it defaults to
    ``time.monotonic`` so deadlines survive wall-clock adjustments.
    """

    __slots__ = ("at", "_clock", "_pool_stats", "_read_limit")

    def __init__(
        self, at: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.at = at
        self._clock = clock
        self._pool_stats: PoolStats | None = None
        self._read_limit = 0

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """The deadline ``seconds`` from now on ``clock``."""
        return cls(clock() + seconds, clock)

    def capped(self, pool: "BufferPool", max_page_fetches: int) -> "Deadline":
        """This instant, also spent after ``max_page_fetches`` more
        physical reads through ``pool`` (counted from now)."""
        if max_page_fetches < 0:
            raise ValueError("max_page_fetches must be >= 0")
        capped = Deadline(self.at, self._clock)
        capped._pool_stats = pool.stats
        capped._read_limit = pool.stats.physical_reads + max_page_fetches
        return capped

    def remaining(self) -> float:
        """Seconds left before the deadline, floored at ``0.0``."""
        return max(0.0, self.at - self._clock())

    def expired(self) -> bool:
        """Has the instant passed?"""
        return self._clock() >= self.at

    def exhausted(self) -> str | None:
        """Why the work must stop now, or ``None`` while within limits.

        ``"deadline"`` once the instant has passed, ``"page_fetches"``
        once a :meth:`capped` read allowance is spent.  Runs once per
        index entry on the matcher's hot path: at most two compares.
        """
        if self._clock() >= self.at:
            return DEGRADED_DEADLINE
        stats = self._pool_stats
        if stats is not None and stats.physical_reads >= self._read_limit:
            return DEGRADED_PAGE_FETCHES
        return None

    def __repr__(self) -> str:
        return f"Deadline(at={self.at:.6f}, remaining={self.remaining():.6f})"


class CircuitBreaker:
    """A breaker over a protected path, with two half-open policies.

    ``failure_threshold`` consecutive failures trip it open.  While open,
    :meth:`allow` denies the protected path except for half-open trials,
    whose cadence depends on the configuration:

    - **count-based** (``cooldown_s=None``, the historical behaviour):
      one trial every ``half_open_interval`` denials.  Deterministic (no
      clocks), right for batch runs where denials keep arriving.
    - **time-based** (``cooldown_s`` set): after ``cooldown_s`` seconds
      on the monotonic clock the breaker moves to ``half_open`` and
      grants exactly *one* probe; further calls are denied until the
      probe resolves.  :meth:`record_success` closes the breaker,
      :meth:`record_failure` re-trips it and restarts the cooldown.
      This is what a long-running server needs — a tripped breaker
      recloses on its own once the outage passes, without a restart and
      without depending on a steady stream of denials.

    Thread-safe: one breaker is shared across a batch engine's workers
    (or a server's worker pool).  ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        half_open_interval: int = 8,
        cooldown_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if half_open_interval < 1:
            raise ValueError("half_open_interval must be >= 1")
        if cooldown_s is not None and cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        self.failure_threshold = failure_threshold
        self.half_open_interval = half_open_interval
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = make_lock("CircuitBreaker._lock")
        self._consecutive_failures = 0
        self._open = False
        self._half_open = False
        self._opened_at: float | None = None
        self._denials = 0
        self.trips = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or (time-based only) ``"half_open"``."""
        with self._lock:
            if not self._open:
                return "closed"
            return "half_open" if self._half_open else "open"

    def allow(self) -> bool:
        """May the protected path run now?"""
        with self._lock:
            if not self._open:
                return True
            if self.cooldown_s is not None:
                if self._half_open:
                    return False  # one probe in flight; deny the rest
                assert self._opened_at is not None
                if self._clock() - self._opened_at >= self.cooldown_s:
                    self._half_open = True
                    return True  # the half-open probe
                return False
            self._denials += 1
            if self._denials % self.half_open_interval == 0:
                return True  # half-open trial
            return False

    def record_success(self) -> None:
        """A protected-path success: reset the count and close the breaker."""
        with self._lock:
            self._consecutive_failures = 0
            self._open = False
            self._half_open = False
            self._opened_at = None
            self._denials = 0

    def record_failure(self) -> None:
        """A protected-path failure; trips (or re-trips) the breaker.

        At ``failure_threshold`` consecutive failures a closed breaker
        opens.  In time-based mode a failure while ``half_open`` — the
        probe itself failed — re-trips: the breaker goes back to fully
        open and the cooldown restarts from now.
        """
        with self._lock:
            self._consecutive_failures += 1
            if self._half_open:
                self._half_open = False
                self._opened_at = self._clock()
                self.trips += 1
                return
            if self._consecutive_failures >= self.failure_threshold and not self._open:
                self._open = True
                self._opened_at = self._clock()
                self.trips += 1


@dataclass
class ResiliencePolicy:
    """Everything one matcher (or batch fleet) needs to survive faults.

    ``deadline_ms`` and ``max_page_fetches`` limit every query (``None`` =
    unlimited) unless the call site passes its own; the matcher turns
    them into a :class:`Deadline` when the query starts.  ``fallback``
    enables the ``osc → basic → naive`` strategy chain on
    :class:`~repro.db.errors.DatabaseError`; ``breaker`` gates the ETI
    path.  Share one policy instance across the workers of a batch engine.
    """

    deadline_ms: float | None = None
    max_page_fetches: int | None = None
    fallback: bool = True
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if self.max_page_fetches is not None and self.max_page_fetches < 0:
            raise ValueError("max_page_fetches must be >= 0")


def fallback_chain(strategy: str) -> tuple[str, ...]:
    """The degradation order starting at ``strategy``."""
    chain = ("osc", "basic", "naive")
    try:
        return chain[chain.index(strategy):]
    except ValueError:
        return (strategy,)
