"""Resilience overhead: checksums + budget metering on the hot path.

The resilience layer must be cheap when nothing is failing: CRC32
verification happens only on *physical* page reads, and budget metering is
a couple of counter comparisons per index entry.  This benchmark runs the
``bench_batch`` workload (repeated-token dirty batch, OSC strategy) in two
modes over the same data:

- ``baseline``: checksum verification off, no resilience policy — the
  fastest the engine goes.
- ``guarded``: checksum verification on plus a :class:`ResiliencePolicy`
  with a generous budget (so the metering code runs on every query but
  never trips).

Both modes must produce bit-identical matches (asserted).  The acceptance
bar: guarded overhead under 5% of baseline throughput.  Each mode is timed
best-of-``REPRO_BENCH_RESILIENCE_ROUNDS`` to damp scheduler noise.

Results go to ``benchmarks/results/BENCH_resilience.json``.

Scale is environment-tunable::

    REPRO_BENCH_BATCH_REFERENCE    reference relation size   (default 2000)
    REPRO_BENCH_BATCH_DISTINCT     distinct dirty tuples     (default 75)
    REPRO_BENCH_BATCH_REPEATS      repetitions of each tuple (default 4)
    REPRO_BENCH_RESILIENCE_ROUNDS  timing rounds per mode    (default 3)

Run directly: ``PYTHONPATH=src python benchmarks/bench_resilience.py``.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path

from repro.core.cache import MatcherCaches
from repro.core.config import MatchConfig
from repro.core.matcher import FuzzyMatcher
from repro.core.reference import ReferenceTable
from repro.core.resilience import QueryBudget, ResiliencePolicy
from repro.core.weights import build_frequency_cache
from repro.data.datasets import DatasetSpec, make_dataset
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.db.pager import BufferPool, InMemoryStorage

REFERENCE_SIZE = int(os.environ.get("REPRO_BENCH_BATCH_REFERENCE", "2000"))
DISTINCT_INPUTS = int(os.environ.get("REPRO_BENCH_BATCH_DISTINCT", "75"))
REPEATS = int(os.environ.get("REPRO_BENCH_BATCH_REPEATS", "4"))
ROUNDS = int(os.environ.get("REPRO_BENCH_RESILIENCE_ROUNDS", "3"))
SEED = 2003
# Small enough that queries generate real physical reads (so checksum
# verification actually runs), large enough to stay realistic.
POOL_CAPACITY = 512
OVERHEAD_BUDGET_PCT = 5.0

RESULT_PATH = Path(__file__).resolve().parent / "results" / "BENCH_resilience.json"


def build_world(verify_checksums: bool):
    """The bench_batch workload over a pool with verification on or off."""
    from repro.eti.builder import build_eti

    pool = BufferPool(
        InMemoryStorage(),
        capacity=POOL_CAPACITY,
        verify_checksums=verify_checksums,
    )
    db = Database(pool)
    customers = generate_customers(REFERENCE_SIZE, seed=SEED, unique=True)
    rows = [(c.tid, c.values) for c in customers]
    reference = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
    reference.load(rows)
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    config = MatchConfig(q=4, signature_size=2, use_osc=True)
    eti, _ = build_eti(db, reference, config)

    dataset = make_dataset(
        rows, DatasetSpec.preset("D2"), DISTINCT_INPUTS, seed=SEED + 1
    )
    batch = [dirty.values for dirty in dataset.inputs] * REPEATS
    random.Random(SEED + 2).shuffle(batch)
    return db, pool, reference, weights, config, eti, batch


def extract(results):
    return [
        [(match.tid, match.similarity) for match in result.matches]
        for result in results
    ]


def time_mode(pool, reference, weights, config, eti, batch, policy):
    """Best-of-ROUNDS wall time for one pass over the batch."""
    best_seconds = None
    view = None
    for _ in range(ROUNDS):
        pool.drop_cache()  # start each round with the same cold pool
        matcher = FuzzyMatcher(
            reference,
            weights,
            config,
            eti,
            caches=MatcherCaches(),
            resilience=policy,
        )
        started = time.perf_counter()
        results = matcher.match_many(batch)
        seconds = time.perf_counter() - started
        view = extract(results)
        if best_seconds is None or seconds < best_seconds:
            best_seconds = seconds
    return best_seconds, view, pool.stats.physical_reads


def main() -> int:
    generous = ResiliencePolicy(
        budget=QueryBudget(deadline=3600.0, max_page_fetches=10**9)
    )
    modes = []
    views = {}
    for name, verify, policy in (
        ("baseline", False, None),
        ("guarded", True, generous),
    ):
        db, pool, reference, weights, config, eti, batch = build_world(verify)
        try:
            seconds, view, physical_reads = time_mode(
                pool, reference, weights, config, eti, batch, policy
            )
        finally:
            db.close()
        views[name] = view
        modes.append(
            {
                "name": name,
                "verify_checksums": verify,
                "budget_metering": policy is not None,
                "seconds": seconds,
                "queries_per_second": len(batch) / seconds,
                "physical_reads": physical_reads,
            }
        )

    assert views["baseline"] == views["guarded"], "guarded results diverged"

    baseline, guarded = modes
    overhead_pct = 100.0 * (guarded["seconds"] / baseline["seconds"] - 1.0)
    payload = {
        "benchmark": "resilience_overhead",
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
        "overhead_pct": overhead_pct,
        "overhead_budget_pct": OVERHEAD_BUDGET_PCT,
    }
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    for mode in modes:
        print(
            f"  {mode['name']:>9}: {mode['queries_per_second']:8.1f} q/s "
            f"({mode['seconds']:.3f}s, {mode['physical_reads']} physical reads)"
        )
    print(f"checksum+budget overhead: {overhead_pct:+.2f}%")
    if overhead_pct > OVERHEAD_BUDGET_PCT:
        print(
            f"WARNING: overhead above the {OVERHEAD_BUDGET_PCT:.0f}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
