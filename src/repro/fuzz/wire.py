"""Wire-protocol fuzz target: mutated frames against a live server.

Stands up a real in-process :class:`~repro.serve.server.MatchServer`
over the paper's three-row organization relation (Table 1) with
deliberately tight boundary limits — a small ``max_frame_bytes``, short
frame and write timeouts, a low pipelining cap — then delivers mutated
frames over real TCP connections, split across writes according to a
seeded chunk plan.

The invariant checked per case:

- every response line the server emits is a JSON object (typed) —
  closing the connection after a non-recoverable typed shed is also
  acceptable;
- the exchange finishes within the case deadline (no hangs);
- after the hostile exchange a *fresh* connection's ``ping`` answers
  within the deadline (the process survived).
"""

from __future__ import annotations

import json
import random
import socket
import time
from types import TracebackType

from repro.fuzz.mutators import chunk_plan, mutate

__all__ = ["StatsTarget", "WireTarget"]

# Table 1 of the paper — small enough that an engine builds in
# milliseconds, rich enough that match requests exercise the full path.
# The on-disk targets (repro.fuzz.disk) build their warehouse from it too.
ORG_COLUMNS = ("org_name", "city", "state", "zipcode")
ORG_ROWS = (
    (1, ("Boeing Company", "Seattle", "WA", "98004")),
    (2, ("Bon Corporation", "Seattle", "WA", "98014")),
    (3, ("Companions", "Seattle", "WA", "98024")),
)

# Canonical well-formed frames mutations start from: the structure-aware
# part of the fuzzer.  Mutating valid requests reaches far deeper than
# random bytes ever would.
_SEED_FRAMES = (
    b'{"op":"match","values":["Beoing Company","Seattle","WA","98004"]}\n',
    b'{"op":"match","id":"q1","values":["Beoing Co.",null,"WA","98004"],'
    b'"k":2,"min_similarity":0.3,"strategy":"basic","deadline_ms":400,'
    b'"priority":"bulk"}\n',
    b'{"op":"match","values":["Company Beoing","Seattle",null,"98014"],'
    b'"idempotency_key":"fuzz-key-1"}\n',
    b'{"op":"ping"}\n',
    b'{"op":"stats"}\n',
)

_LIVENESS_PROBE = b'{"op":"ping","id":"fuzz-liveness"}\n'


class WireTarget:
    """A live in-process match server plus the hostile-client machinery."""

    name = "wire"
    #: Canonical frames this target's mutations start from; subclasses
    #: narrow the pool to concentrate on one op.
    seed_frames = _SEED_FRAMES

    def __init__(self, case_deadline_s: float = 5.0) -> None:
        if case_deadline_s <= 0:
            raise ValueError(
                f"case_deadline_s must be positive, got {case_deadline_s}"
            )
        self.case_deadline_s = case_deadline_s
        self._server = None
        self._db = None
        self._address: tuple[str, int] | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Build the tiny matcher and start the server on an OS port."""
        from repro.core.config import MatchConfig, SignatureScheme
        from repro.core.matcher import FuzzyMatcher
        from repro.serve.server import MatchServer, ServeConfig

        config = MatchConfig(q=3, signature_size=2, scheme=SignatureScheme.QGRAMS)
        engine = FuzzyMatcher.build(ORG_COLUMNS, ORG_ROWS, config)
        server = MatchServer(
            engine=engine,
            config=ServeConfig(
                workers=2,
                queue_capacity=16,
                default_deadline_ms=1000.0,
                max_frame_bytes=8192,
                frame_timeout_s=2.0,
                idle_timeout_s=10.0,
                write_timeout_s=2.0,
                max_pipelined_frames=8,
            ),
        )
        self._address = server.start()
        self._server = server
        self._db = engine.database

    def close(self) -> None:
        """Shut the server down and release the database."""
        if self._server is not None:
            self._server.shutdown(drain_budget_s=1.0)
            self._server = None
        if self._db is not None:
            self._db.close()
            self._db = None
        self._address = None

    def reset(self) -> None:
        """Restart the server — called after a failure may have wedged it."""
        self.close()
        self.start()

    def __enter__(self) -> "WireTarget":
        self.start()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # -- fuzzing -------------------------------------------------------

    def run_case(
        self, rng: random.Random
    ) -> tuple[bytes, tuple[str, ...], str] | None:
        """One fuzz case: mutate a seed frame, deliver it, check invariants.

        Returns ``None`` on a clean case, else ``(input, recipe, detail)``.
        """
        seed_frame = self.seed_frames[rng.randrange(len(self.seed_frames))]
        data, recipe = mutate(seed_frame, rng)
        plan = chunk_plan(len(data), rng)
        detail = self.check_input(data, plan)
        if detail is None:
            return None
        return data, recipe, detail

    def check_input(
        self, data: bytes, plan: tuple[int, ...] | None = None
    ) -> str | None:
        """Deliver ``data`` and verify the invariant; None means clean.

        Used both by :meth:`run_case` and by the harness's minimizer
        (which replays shrunk candidates as a single write).
        """
        deadline = time.monotonic() + self.case_deadline_s
        detail = self._exchange(data, plan or (len(data),), deadline)
        if detail is not None:
            return detail
        return self._liveness(deadline)

    def _exchange(
        self, data: bytes, plan: tuple[int, ...], deadline: float
    ) -> str | None:
        """Send mutated bytes, then a ping; read typed responses back."""
        if self._address is None:
            raise RuntimeError("WireTarget is not started")
        try:
            sock = socket.create_connection(
                self._address, timeout=max(0.1, deadline - time.monotonic())
            )
        except OSError as exc:
            return f"connect failed: {type(exc).__name__}: {exc}"
        try:
            offset = 0
            for size in plan:
                sock.settimeout(max(0.1, deadline - time.monotonic()))
                try:
                    sock.sendall(data[offset : offset + size])
                except OSError:
                    # The server closed on us mid-delivery — a boundary
                    # rejection already happened; liveness still verifies
                    # the process survived.
                    return None
                offset += size
            try:
                # The newline terminates any partial frame the mutated
                # bytes left open; half-closing tells the server no more
                # input is coming, so it answers what it has and closes.
                sock.sendall(b"\n")
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                return None
            return self._read_typed_lines(sock, deadline)
        finally:
            sock.close()

    def _read_typed_lines(self, sock: socket.socket, deadline: float) -> str | None:
        """Every response line until the server closes must be JSON."""
        with sock.makefile("rb") as reader:
            while True:
                sock.settimeout(max(0.1, deadline - time.monotonic()))
                try:
                    line = reader.readline()
                except TimeoutError:
                    return "hang: no response within the case deadline"
                except OSError:
                    return None  # reset after a typed close — acceptable
                if not line:
                    return None  # EOF: the server answered and closed
                if not line.strip():
                    return "untyped response: blank line"
                try:
                    payload = json.loads(line)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    return f"untyped response: not JSON ({line[:80]!r})"
                if not isinstance(payload, dict):
                    return f"untyped response: not an object ({line[:80]!r})"
                if time.monotonic() >= deadline:
                    return "hang: responses kept arriving past the deadline"

    def _liveness(self, deadline: float) -> str | None:
        """A fresh connection's ping must answer within the deadline."""
        budget = max(0.1, deadline - time.monotonic())
        try:
            with socket.create_connection(self._address, timeout=budget) as sock:
                sock.settimeout(budget)
                sock.sendall(_LIVENESS_PROBE)
                with sock.makefile("rb") as reader:
                    line = reader.readline()
        except OSError as exc:
            return f"liveness probe failed: {type(exc).__name__}: {exc}"
        try:
            payload = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return f"liveness response not JSON: {line[:80]!r}"
        if not isinstance(payload, dict) or payload.get("ok") is not True:
            return f"liveness response not ok: {line[:80]!r}"
        return None


# Canonical stats frames: the default request, every explicit section
# mix, plus near-miss invalids (empty list, bad section, wrong type) so
# mutations straddle the accept/reject boundary of section decoding.
_STATS_SEED_FRAMES = (
    b'{"op":"stats"}\n',
    b'{"op":"stats","id":"s1","sections":["serve"]}\n',
    b'{"op":"stats","sections":["serve","metrics"]}\n',
    b'{"op":"stats","sections":["serve","metrics","traces"]}\n',
    b'{"op":"stats","sections":["traces","traces"]}\n',
    b'{"op":"stats","sections":[]}\n',
    b'{"op":"stats","sections":["bogus"]}\n',
    b'{"op":"stats","sections":"serve"}\n',
    b'{"op":"match","values":["Beoing Company","Seattle","WA","98004"]}\n',
    b'{"op":"ping"}\n',
)

_STATS_PROBE = (
    b'{"op":"stats","id":"fuzz-stats-liveness",'
    b'"sections":["serve","metrics","traces"]}\n'
)


class StatsTarget(WireTarget):
    """Fuzz the ``stats`` op: mutated stats requests against the server.

    Same server and delivery machinery as :class:`WireTarget`, but the
    seed pool concentrates on stats frames (section decoding is the new
    attack surface) and liveness is strengthened: after each hostile
    exchange a fresh connection must answer a well-formed full-section
    stats request with ``ok`` and a ``metrics`` block — proving the
    exposition plane itself survived, not just the ping path.
    """

    name = "stats"
    seed_frames = _STATS_SEED_FRAMES

    def _liveness(self, deadline: float) -> str | None:
        """Ping must answer, then a full stats request must answer."""
        detail = super()._liveness(deadline)
        if detail is not None:
            return detail
        budget = max(0.1, deadline - time.monotonic())
        try:
            with socket.create_connection(self._address, timeout=budget) as sock:
                sock.settimeout(budget)
                sock.sendall(_STATS_PROBE)
                with sock.makefile("rb") as reader:
                    line = reader.readline()
        except OSError as exc:
            return f"stats probe failed: {type(exc).__name__}: {exc}"
        try:
            payload = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return f"stats probe response not JSON: {line[:80]!r}"
        if not isinstance(payload, dict) or payload.get("ok") is not True:
            return f"stats probe response not ok: {line[:80]!r}"
        if "metrics" not in payload:
            return f"stats probe response lacks metrics: {line[:120]!r}"
        return None
