"""Instrumented locks: a lightweight dynamic race detector for tests.

The static side of the concurrency contract lives in
:mod:`repro.analysis.rules_locks`; this module is the dynamic side.
When the environment variable :data:`ENV_FLAG` (``REPRO_DEBUG_LOCKS``)
is set to a non-empty value other than ``0``, the lock factories
:func:`make_lock`/:func:`make_rlock` — used by every lock owner in the
concurrency layer (``LRUCache``, ``ReferenceTable``, ``BufferPool``,
``CircuitBreaker``) — hand out :class:`DebugLock` objects instead of
plain ``threading`` locks.  A :class:`DebugLock`:

- tracks its owner thread, so :func:`assert_owned` can verify the
  "caller holds the lock" contract of helper methods like
  ``BufferPool._install`` (the sites the static rule suppresses with a
  pragma are exactly the sites that call :func:`assert_owned`);
- records every *nested* acquisition into a global lock-order graph
  (edge ``A -> B`` when ``B`` is acquired while ``A`` is held) and
  raises :class:`LockOrderInversionError` **before blocking** when a
  thread tries to acquire in the reverse of a previously observed order
  — turning a potential deadlock into a deterministic test failure;
- raises :class:`UnguardedAccessError` on same-thread re-acquisition of
  a non-reentrant lock (a plain ``threading.Lock`` would deadlock).

Lock names are *type-level* (``"BufferPool._lock"``), so the order graph
aggregates across instances; with the flag unset the factories return
ordinary locks and the overhead is exactly zero.  The chaos suite runs
once under ``REPRO_DEBUG_LOCKS=1`` in CI.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Iterator

ENV_FLAG = "REPRO_DEBUG_LOCKS"


class LockDisciplineError(AssertionError):
    """Base class for dynamic lock-contract violations."""


class LockOrderInversionError(LockDisciplineError):
    """Two locks were acquired in both nesting orders (deadlock risk)."""


class UnguardedAccessError(LockDisciplineError):
    """Lock-guarded state was touched without holding its lock."""


class _OrderGraph:
    """The global nested-acquisition graph shared by every DebugLock."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._edges: dict[str, set[str]] = {}
        self._held = threading.local()

    def held_stack(self) -> list["DebugLock"]:
        """The locks the current thread holds, outermost first."""
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def check_and_record(self, acquiring: "DebugLock") -> None:
        """Validate acquiring ``acquiring`` given the thread's held set.

        Records ``held -> acquiring`` edges; raises
        :class:`LockOrderInversionError` if the reverse edge exists.
        """
        held_names = [
            lock.name for lock in self.held_stack() if lock.name != acquiring.name
        ]
        if not held_names:
            return
        with self._mutex:
            reverse = self._edges.get(acquiring.name, set())
            for name in held_names:
                if name in reverse:
                    raise LockOrderInversionError(
                        f"lock-order inversion: acquiring {acquiring.name!r} "
                        f"while holding {name!r}, but the opposite order "
                        f"({acquiring.name!r} before {name!r}) was observed "
                        f"earlier; edges={self.edges()!r}"
                    )
            for name in held_names:
                self._edges.setdefault(name, set()).add(acquiring.name)

    def edges(self) -> dict[str, tuple[str, ...]]:
        """A copy of the observed order graph (for tests/diagnostics)."""
        return {name: tuple(sorted(after)) for name, after in self._edges.items()}

    def reset(self) -> None:
        """Forget every recorded edge (tests isolate themselves with this)."""
        with self._mutex:
            self._edges.clear()


_GRAPH = _OrderGraph()


class DebugLock:
    """A lock wrapper that enforces ordering and ownership at runtime.

    Drop-in for ``threading.Lock`` / ``threading.RLock`` (context
    manager, ``acquire``/``release``, ``locked``).  Always backed by an
    ``RLock`` so ownership bookkeeping is race-free; ``reentrant=False``
    restores Lock semantics by *raising* on same-thread re-acquisition
    instead of deadlocking.
    """

    def __init__(self, name: str, reentrant: bool = False) -> None:
        self.name = name
        self.reentrant = reentrant
        self._inner = threading.RLock()
        self._owner: int | None = None
        self._count = 0

    # -- ownership ----------------------------------------------------

    @property
    def owned(self) -> bool:
        """Does the current thread hold this lock?"""
        return self._owner == threading.get_ident()

    def assert_owned(self) -> None:
        """Raise :class:`UnguardedAccessError` unless held by this thread."""
        if not self.owned:
            raise UnguardedAccessError(
                f"guarded state touched without holding {self.name!r} "
                f"(owner={self._owner!r}, thread={threading.get_ident()!r})"
            )

    # -- lock protocol ------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire, checking reentrancy and global lock order first."""
        if self.owned:
            if not self.reentrant:
                raise UnguardedAccessError(
                    f"non-reentrant lock {self.name!r} re-acquired by its "
                    f"owner thread (a plain Lock would deadlock here)"
                )
        else:
            _GRAPH.check_and_record(self)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            if self._count == 0:
                self._owner = threading.get_ident()
                _GRAPH.held_stack().append(self)
            self._count += 1
        return acquired

    def release(self) -> None:
        """Release; ownership bookkeeping mirrors acquisition."""
        if not self.owned:
            raise UnguardedAccessError(
                f"{self.name!r} released by a thread that does not hold it"
            )
        self._count -= 1
        if self._count == 0:
            self._owner = None
            stack = _GRAPH.held_stack()
            if self in stack:
                stack.remove(self)
        self._inner.release()

    def locked(self) -> bool:
        """Is the lock currently held by any thread?"""
        return self._owner is not None

    def __enter__(self) -> "DebugLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        state = f"owner={self._owner}" if self._owner is not None else "unlocked"
        return f"<DebugLock {self.name!r} {state}>"


def debug_locks_enabled() -> bool:
    """Is the :data:`ENV_FLAG` environment switch on right now?"""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def make_lock(name: str) -> "threading.Lock | DebugLock":
    """A mutex for ``name``: plain ``Lock``, or instrumented under the flag.

    The flag is read at creation time: structures built while
    ``REPRO_DEBUG_LOCKS=1`` keep their instrumented locks for life.
    """
    if debug_locks_enabled():
        return DebugLock(name, reentrant=False)
    return threading.Lock()


def make_rlock(name: str) -> "threading.RLock | DebugLock":
    """Like :func:`make_lock` but reentrant (``RLock`` semantics)."""
    if debug_locks_enabled():
        return DebugLock(name, reentrant=True)
    return threading.RLock()


def assert_owned(lock: Any) -> None:
    """Assert the current thread holds ``lock`` — no-op for plain locks.

    Lock-held helper methods call this so the "caller holds the lock"
    contract that the static rule takes on faith (via pragma) is verified
    whenever the debug-lock flag is on.
    """
    if isinstance(lock, DebugLock):
        lock.assert_owned()


def lock_order_edges() -> dict[str, tuple[str, ...]]:
    """The observed global nested-acquisition graph."""
    return _GRAPH.edges()


def held_locks() -> Iterator[str]:
    """Names of the DebugLocks the current thread holds, outermost first."""
    for lock in _GRAPH.held_stack():
        yield lock.name


def reset_lock_order() -> None:
    """Clear the global order graph (test isolation)."""
    _GRAPH.reset()
