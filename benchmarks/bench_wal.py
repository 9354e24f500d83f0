"""Write-ahead-log overhead: steady-state matching, checkpoint, recovery.

Match queries are read-only, so once the warehouse is checkpointed the
log should cost almost nothing: the only WAL work on the hot path is a
tail-table lookup per physical page read, and after a checkpoint the
tail is empty.  This benchmark runs the ``bench_batch`` workload
(repeated-token dirty batch, OSC strategy) against the *same* persisted
warehouse opened two ways:

- ``wal_off``: plain ``FileStorage`` — the historical write-in-place
  engine, no crash atomicity.
- ``wal_on``: the same page file behind :class:`~repro.db.wal.WalStorage`
  with an empty (checkpointed) log.

Both modes must produce bit-identical matches (asserted).  The
acceptance bar: WAL-on steady-state throughput within 10% of WAL-off.
Each mode is timed best-of-``REPRO_BENCH_WAL_ROUNDS`` to damp scheduler
noise.  Two latency figures ride along:

- ``checkpoint_seconds``: time for :func:`save_database` to migrate a
  committed transaction's images from the log into the page file.
- ``recovery_seconds``: time for :func:`load_database` to replay a live
  committed tail after an unclean shutdown.

Results go to ``benchmarks/results/BENCH_wal.json``.

Scale is environment-tunable::

    REPRO_BENCH_BATCH_REFERENCE  reference relation size   (default 2000)
    REPRO_BENCH_BATCH_DISTINCT   distinct dirty tuples     (default 75)
    REPRO_BENCH_BATCH_REPEATS    repetitions of each tuple (default 4)
    REPRO_BENCH_WAL_ROUNDS       timing rounds per mode    (default 3)
    REPRO_BENCH_WAL_TAIL_ROWS    rows in the ckpt/recovery tail (default 200)

Run directly: ``PYTHONPATH=src python benchmarks/bench_wal.py``.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

from repro.core.cache import MatcherCaches
from repro.core.config import MatchConfig
from repro.core.matcher import FuzzyMatcher
from repro.core.reference import ReferenceTable
from repro.core.weights import build_frequency_cache
from repro.data.datasets import DatasetSpec, make_dataset
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.db.snapshot import load_database, save_database

REFERENCE_SIZE = int(os.environ.get("REPRO_BENCH_BATCH_REFERENCE", "2000"))
DISTINCT_INPUTS = int(os.environ.get("REPRO_BENCH_BATCH_DISTINCT", "75"))
REPEATS = int(os.environ.get("REPRO_BENCH_BATCH_REPEATS", "4"))
ROUNDS = int(os.environ.get("REPRO_BENCH_WAL_ROUNDS", "3"))
TAIL_ROWS = int(os.environ.get("REPRO_BENCH_WAL_TAIL_ROWS", "200"))
SEED = 2003
POOL_CAPACITY = 512
THROUGHPUT_GAP_BUDGET_PCT = 10.0

RESULT_PATH = Path(__file__).resolve().parent / "results" / "BENCH_wal.json"

CONFIG = MatchConfig(q=4, signature_size=2, use_osc=True)


def build_warehouse(page_path: str) -> list[tuple[int, list[str]]]:
    """Build, checkpoint, and close the reference warehouse once."""
    from repro.eti.builder import build_eti

    db = Database.on_disk(page_path, pool_capacity=POOL_CAPACITY)
    customers = generate_customers(REFERENCE_SIZE, seed=SEED, unique=True)
    rows = [(c.tid, c.values) for c in customers]
    reference = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
    reference.load(rows)
    build_eti(db, reference, CONFIG)
    save_database(db)
    db.close()
    return rows


def make_batch(rows):
    dataset = make_dataset(
        rows, DatasetSpec.preset("D2"), DISTINCT_INPUTS, seed=SEED + 1
    )
    batch = [dirty.values for dirty in dataset.inputs] * REPEATS
    random.Random(SEED + 2).shuffle(batch)
    return batch


def extract(results):
    return [
        [(match.tid, match.similarity) for match in result.matches]
        for result in results
    ]


def time_mode(page_path: str, batch, wal: bool):
    """Best-of-ROUNDS wall time for one cold-pool pass over the batch."""
    best_seconds = None
    view = None
    for _ in range(ROUNDS):
        db = load_database(page_path, pool_capacity=POOL_CAPACITY, wal=wal)
        try:
            reference = ReferenceTable.attach(
                db, "reference", list(CUSTOMER_COLUMNS)
            )
            weights = build_frequency_cache(
                reference.scan_values(), reference.num_columns
            )
            from repro.eti.index import EtiIndex

            eti = EtiIndex(db.relation("eti"))
            matcher = FuzzyMatcher(
                reference, weights, CONFIG, eti, caches=MatcherCaches()
            )
            started = time.perf_counter()
            results = matcher.match_many(batch)
            seconds = time.perf_counter() - started
        finally:
            db.close()
        view = extract(results)
        if best_seconds is None or seconds < best_seconds:
            best_seconds = seconds
    return best_seconds, view


def time_checkpoint_and_recovery(page_path: str):
    """Latency of checkpointing a committed tail, then of replaying one."""
    # Land TAIL_ROWS in the log as one committed transaction.
    db = load_database(page_path, pool_capacity=POOL_CAPACITY)
    with db.transaction():
        relation = db.relation("reference")
        for i in range(TAIL_ROWS):
            relation.insert(
                (10**6 + i, f"Tail Company {i}", "Tailtown", "TT", "00000")
            )
    tail_pages = db.wal.tail_pages
    started = time.perf_counter()
    save_database(db)
    checkpoint_seconds = time.perf_counter() - started
    db.close()

    # Same transaction again, but close without checkpointing: the next
    # open must replay the committed tail (an unclean shutdown).
    db = load_database(page_path, pool_capacity=POOL_CAPACITY)
    with db.transaction():
        relation = db.relation("reference")
        for i in range(TAIL_ROWS):
            relation.insert(
                (2 * 10**6 + i, f"Crash Company {i}", "Tailtown", "TT", "00000")
            )
    db.close()  # flushes the pool; the log keeps the un-checkpointed tail
    started = time.perf_counter()
    db = load_database(page_path, pool_capacity=POOL_CAPACITY)
    recovery_seconds = time.perf_counter() - started
    recovery = db.wal.recovery
    db.close()
    return {
        "tail_rows": TAIL_ROWS,
        "checkpoint_tail_pages": tail_pages,
        "checkpoint_seconds": checkpoint_seconds,
        "recovery_seconds": recovery_seconds,
        "recovery_committed_txns": recovery.committed_txns,
        "recovery_replayed_pages": recovery.replayed_pages,
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bench_wal_") as tmp:
        page_path = os.path.join(tmp, "warehouse.pages")
        rows = build_warehouse(page_path)
        batch = make_batch(rows)

        modes = []
        views = {}
        for name, wal in (("wal_off", False), ("wal_on", True)):
            # wal=False deletes a leftover log at save time only; here we
            # just open read-mostly, so order the WAL-off pass first while
            # the log is guaranteed empty either way.
            seconds, view = time_mode(page_path, batch, wal=wal)
            views[name] = view
            modes.append(
                {
                    "name": name,
                    "wal": wal,
                    "seconds": seconds,
                    "queries_per_second": len(batch) / seconds,
                }
            )

        assert views["wal_off"] == views["wal_on"], "WAL-on results diverged"

        latencies = time_checkpoint_and_recovery(page_path)

    off, on = modes
    gap_pct = 100.0 * (on["seconds"] / off["seconds"] - 1.0)
    payload = {
        "benchmark": "wal_overhead",
        "workload": {
            "reference_size": REFERENCE_SIZE,
            "batch_size": DISTINCT_INPUTS * REPEATS,
            "distinct_inputs": DISTINCT_INPUTS,
            "repeats": REPEATS,
            "pool_capacity": POOL_CAPACITY,
            "strategy": "osc",
            "dataset_preset": "D2",
            "rounds": ROUNDS,
        },
        "modes": modes,
        "throughput_gap_pct": gap_pct,
        "throughput_gap_budget_pct": THROUGHPUT_GAP_BUDGET_PCT,
        "latencies": latencies,
    }
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    for mode in modes:
        print(
            f"  {mode['name']:>7}: {mode['queries_per_second']:8.1f} q/s "
            f"({mode['seconds']:.3f}s)"
        )
    print(f"WAL steady-state overhead: {gap_pct:+.2f}%")
    print(
        f"checkpoint: {latencies['checkpoint_seconds'] * 1000:.1f} ms "
        f"({latencies['checkpoint_tail_pages']} tail pages), "
        f"recovery: {latencies['recovery_seconds'] * 1000:.1f} ms "
        f"({latencies['recovery_replayed_pages']} pages replayed)"
    )
    if gap_pct > THROUGHPUT_GAP_BUDGET_PCT:
        print(
            "WARNING: WAL overhead above the "
            f"{THROUGHPUT_GAP_BUDGET_PCT:.0f}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
