"""Shared plumbing of the perf ledger: worlds, warehouses, shims, probes.

Everything here measures the program from outside.  :func:`call` times
one public call: untraced it is ``perf_counter`` around the call with
nothing else installed; traced it goes through a :class:`Probe`, which opens
a ``repro.obs.tracing.Tracer`` root around the same call so the spans the
program already emits (``matcher.signature_build``, ``matcher.eti_lookups``,
``matcher.verify``, ``db``) are collected, and installs timing shims on
public methods from this file — no program file is edited.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    # The benchmark times the program in this checkout; without it there
    # is nothing to measure (the driver checks this refusal).
    raise SystemExit(f"ledger: no program source at {SRC}")
sys.path.insert(0, str(SRC))

from repro.core.config import MatchConfig  # noqa: E402
from repro.core.matcher import FuzzyMatcher  # noqa: E402
from repro.core.reference import ReferenceTable  # noqa: E402
from repro.core.weights import build_frequency_cache  # noqa: E402
from repro.data.datasets import DatasetSpec, DirtyTuple, make_dataset  # noqa: E402
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers  # noqa: E402
from repro.db.database import Database  # noqa: E402
from repro.db.snapshot import load_database, save_database  # noqa: E402
from repro.eti.builder import BuildStats, build_eti  # noqa: E402
from repro.eti.index import EtiIndex  # noqa: E402
from repro.obs.tracing import Span, Tracer, trace_span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

Row = tuple[int, tuple[str | None, ...]]

#: Every workload matches with the paper's defaults: q=4, Q+T_2, K=1,
#: c=0, OSC on, stop threshold 10 000.
CONFIG = MatchConfig()
ERROR_PRESET = "D2"


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def make_world(
    seed: int, reference_size: int, inputs: int, spare: int = 0
) -> tuple[list[Row], list[DirtyTuple], list[Row]]:
    """``(reference rows, dirty inputs, spare rows)`` drawn from ``seed``.

    ``seed`` drives the reference generator, the sampler and the error
    model; the program only ever sees the generated tuples.  More inputs
    than reference tuples come from further draws of the error model
    over the same relation, so all of them are distinct dirty tuples.
    ``spare`` further unique tuples (never in the reference, tids
    continuing past it) feed the maintenance workload's inserts.
    """
    customers = generate_customers(reference_size + spare, seed=seed, unique=True)
    rows = [(c.tid, c.values) for c in customers]
    reference, extra = rows[:reference_size], rows[reference_size:]
    dirty: list[DirtyTuple] = []
    draw = 0
    while len(dirty) < inputs:
        draw += 1
        dirty += make_dataset(
            reference,
            DatasetSpec.preset(ERROR_PRESET),
            min(inputs - len(dirty), reference_size),
            seed=seed + draw,
        ).inputs
    return reference, dirty, extra


def user_bytes(rows: Sequence[Row]) -> int:
    """Exact UTF-8 size of every attribute value in ``rows``."""
    return sum(
        len(value.encode("utf-8"))
        for _, values in rows
        for value in values
        if value is not None
    )


def stored_bytes(page_path: str) -> int:
    """Bytes the warehouse holds on disk: page file, log and metadata."""
    return sum(
        os.path.getsize(page_path + suffix)
        for suffix in ("", ".wal", ".meta.json")
        if os.path.exists(page_path + suffix)
    )


# ----------------------------------------------------------------------
# Warehouses (the way ``repro serve --db`` builds and reopens one)
# ----------------------------------------------------------------------


@dataclass
class Warehouse:
    """One open on-disk warehouse plus the pieces a matcher needs."""

    path: str
    db: Database
    reference: ReferenceTable
    weights: Any
    eti: EtiIndex
    build_stats: BuildStats | None = None

    def matcher(self) -> FuzzyMatcher:
        return FuzzyMatcher(self.reference, self.weights, CONFIG, self.eti)

    def close(self) -> None:
        self.db.close()


def build_warehouse(path: str, rows: Sequence[Row]) -> Warehouse:
    """First-use build: load, weigh, index, checkpoint (fsync per commit).

    The phase spans are the benchmark's own and only record under a
    :class:`Probe` root; untraced they are the tracer's shared no-op.
    """
    db = Database.on_disk(path, wal=True)
    reference = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
    with trace_span("core.reference.load"):
        reference.load(rows)
    with trace_span("core.weights.build"):
        weights = build_frequency_cache(
            reference.scan_values(), reference.num_columns
        )
    with trace_span("eti.builder.build"):
        eti, stats = build_eti(db, reference, CONFIG)
    with trace_span("db.snapshot.checkpoint"):
        save_database(db, path)
    return Warehouse(path, db, reference, weights, eti, stats)


def open_warehouse(path: str) -> Warehouse:
    """Warm reopen of a persisted warehouse to query-ready pieces."""
    with trace_span("db.snapshot.load"):
        db = load_database(path, wal=True)
    reference = ReferenceTable.attach(db, "reference", list(CUSTOMER_COLUMNS))
    with trace_span("core.weights.build"):
        weights = build_frequency_cache(
            reference.scan_values(), reference.num_columns
        )
    return Warehouse(path, db, reference, weights, EtiIndex(db.relation("eti")))


def remove_warehouse(path: str) -> None:
    for suffix in ("", ".wal", ".meta.json"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


@contextmanager
def work_dir() -> Iterator[str]:
    """A private scratch directory inside the checkout, removed on exit.

    It is also ``TMPDIR`` for this process and the server it starts, so
    an external sort that spills keeps its run files inside the checkout.
    """
    path = LEDGER_DIR / ".work" / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    os.environ["TMPDIR"] = str(path)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``samples`` (0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    """``ru_maxrss`` (KiB on Linux) of this process or its waited children."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Shims and probes
# ----------------------------------------------------------------------


class Shim:
    """Times every call of one public method without editing the program.

    While installed, ``owner.attr`` — an instance attribute for
    per-object shims, a class attribute for the row codec — is a wrapper
    that counts calls, seconds, and results for which ``flag`` is true.
    With ``attribute=True`` it also keeps ``(start, end)`` per call until
    :meth:`Probe.call` charges them to the program span containing them.
    """

    def __init__(
        self,
        owner: Any,
        attr: str,
        attribute: bool = True,
        flag: Callable[[Any], bool] | None = None,
    ) -> None:
        self.owner = owner
        self.attr = attr
        self.calls = 0
        self.seconds = 0.0
        self.flagged = 0
        self.intervals: list[tuple[float, float]] = []
        self._inner = inner = getattr(owner, attr)
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            try:
                out = inner(*args, **kwargs)
                if flag is not None and flag(out):
                    self.flagged += 1
                return out
            finally:
                ended = clock()
                self.calls += 1
                self.seconds += ended - started
                if attribute:
                    self.intervals.append((started, ended))

        self._timed = timed

    def install(self) -> None:
        setattr(self.owner, self.attr, self._timed)

    def remove(self) -> None:
        if isinstance(self.owner, type):
            setattr(self.owner, self.attr, self._inner)
        else:
            delattr(self.owner, self.attr)


@dataclass
class Probe:
    """Traced measurement: a benchmark-opened root span per public call.

    Finished roots stay in memory (``roots``) and are written out once
    the run ends.  ``shims`` maps a layer name (``eti.index.lookup``) to
    its :class:`Shim`; after each call the shim intervals are attributed
    to the innermost span that contains them as ``<layer>_s`` /
    ``<layer>_calls`` annotations, so self time can subtract them.
    """

    tracer: Tracer = field(default_factory=lambda: Tracer(ring_capacity=1))
    shims: dict[str, Shim] = field(default_factory=dict)
    roots: list[Span] = field(default_factory=list)

    def install(self) -> None:
        for shim in self.shims.values():
            shim.install()

    def remove(self) -> None:
        for shim in self.shims.values():
            shim.remove()

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> tuple[Any, float]:
        with self.tracer.trace(name) as root:
            out = fn(*args)
        for layer, shim in self.shims.items():
            _attribute(root, layer, shim.intervals)
            shim.intervals.clear()
        self.roots.append(root)
        return out, root.duration_s


def call(
    probe: Probe | None, name: str, fn: Callable[..., Any], *args: Any
) -> tuple[Any, float]:
    """``(fn(*args), seconds)``: bare wall time, or a root span ``name`` under ``probe``."""
    if probe is not None:
        return probe.call(name, fn, *args)
    started = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - started


def _attribute(root: Span, layer: str, intervals: list[tuple[float, float]]) -> None:
    """Charge each shim interval to the innermost span containing it."""
    if not intervals:
        return
    spans = [span for span in walk(root) if not span.children]
    spans.append(root)
    for start, end in intervals:
        for span in spans:
            if span.start_s <= start and end <= span.end_s:
                notes = span.annotations
                notes[layer + "_s"] = notes.get(layer + "_s", 0.0) + (end - start)
                notes[layer + "_calls"] = notes.get(layer + "_calls", 0) + 1
                break


def walk(span: Span) -> Iterator[Span]:
    """``span`` and every descendant, parents first."""
    yield span
    for child in span.children:
        yield from walk(child)


def span_seconds(roots: Sequence[Span], name: str) -> float:
    """Total duration of every span called ``name`` under ``roots``."""
    return sum(s.duration_s for root in roots for s in walk(root) if s.name == name)


def note_total(roots: Sequence[Span], key: str, within: str | None = None) -> float:
    """Sum of annotation ``key`` over spans (only those named ``within``)."""
    return sum(
        span.annotations.get(key, 0)
        for root in roots
        for span in walk(root)
        if within is None or span.name == within
    )


def self_seconds(roots: Sequence[Span], name: str) -> float:
    """Duration of spans called ``name`` minus what their children cover."""
    return sum(
        span.duration_s - sum(child.duration_s for child in span.children)
        for root in roots
        for span in walk(root)
        if span.name == name
    )


def flatten(roots: Sequence[Span], origin_s: float) -> list[dict[str, Any]]:
    """Trace-file rows: id, operation id, parent id, name, start, end."""
    rows: list[dict[str, Any]] = []

    def visit(span: Span, op: int, parent: int | None) -> None:
        span_id = len(rows)
        row: dict[str, Any] = {
            "id": span_id,
            "op": op,
            "parent": parent,
            "name": span.name,
            "start_ms": round((span.start_s - origin_s) * 1000.0, 4),
            "end_ms": round((span.end_s - origin_s) * 1000.0, 4),
        }
        if span.annotations:
            row["annotations"] = {
                key: round(value, 7) if isinstance(value, float) else value
                for key, value in span.annotations.items()
            }
        rows.append(row)
        for child in span.children:
            visit(child, op, span_id)

    for op, root in enumerate(roots):
        visit(root, op, None)
    return rows


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git_dir / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def fingerprint(**extra: Any) -> dict[str, Any]:
    """The stated scale of a run; results only compare when these agree."""
    affinity = (
        sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    )
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "config": "q=4 Q+T_2 K=1 c=0 osc stop=10000",
        "error_preset": ERROR_PRESET,
        "flush_policy": "fsync per commit",
        **extra,
    }


#: Keys that may differ between two comparable runs.  The seed is not one:
#: another seed is another relation, and numbers move 15-20 % with it.
FINGERPRINT_FREE = ("commit", "affinity")


def comparable(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """Fingerprint keys on which ``a`` and ``b`` disagree (empty = comparable)."""
    return [
        key
        for key in sorted(set(a) | set(b))
        if key not in FINGERPRINT_FREE and a.get(key) != b.get(key)
    ]
