"""Batch-engine throughput: sequential (seed) vs cached vs parallel.

Measures the queries/sec trajectory the ISSUE-1 tentpole targets on a
repeated-token batch workload — the shape of Figure 1's ETL loop, where a
dirty feed repeats tuples and (via IDF's long tail) repeats tokens even
between distinct tuples:

- ``seed_sequential``: reference-tuple cache disabled, plain per-tuple
  ``match`` loop — the pre-cache behaviour of the repository.
- ``cached_sequential``: ``FuzzyMatcher.match_many`` with the cross-query
  reference-tuple cache and batch deduplication, one thread.
- ``cached_jobs4``: :class:`repro.core.batch.BatchMatcher` with
  ``jobs=4`` worker threads over the shared read-only ETI.
- ``process_jobs4``: the same engine with ``executor="process"`` — four
  worker *processes*, each owning a private interpreter (no GIL
  contention).

The two ``jobs=4`` modes would measure oversubscription, not scaling, on
fewer than four CPUs, so there they are recorded as
``{"skipped": "cpus < jobs"}`` (like ``bench_kernels.bench_executors``);
the recorded ``cpus`` field says what the numbers were measured on.

Every mode that runs gets the same batch and must produce bit-identical
matches (asserted).  Results — throughput, speedups, and cache hit-rate
counters — are printed and written to
``benchmarks/results/BENCH_batch.json``.

Scale is environment-tunable::

    REPRO_BENCH_BATCH_REFERENCE  reference relation size   (default 2000)
    REPRO_BENCH_BATCH_DISTINCT   distinct dirty tuples     (default 75)
    REPRO_BENCH_BATCH_REPEATS    repetitions of each tuple (default 4)

Run directly: ``PYTHONPATH=src python benchmarks/bench_batch.py``.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path

from repro.core.batch import BatchMatcher
from repro.core.cache import MatcherCaches
from repro.core.config import MatchConfig
from repro.core.matcher import FuzzyMatcher
from repro.core.reference import ReferenceTable
from repro.core.weights import build_frequency_cache
from repro.data.datasets import DatasetSpec, make_dataset
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.eti.builder import build_eti

REFERENCE_SIZE = int(os.environ.get("REPRO_BENCH_BATCH_REFERENCE", "2000"))
DISTINCT_INPUTS = int(os.environ.get("REPRO_BENCH_BATCH_DISTINCT", "75"))
REPEATS = int(os.environ.get("REPRO_BENCH_BATCH_REPEATS", "4"))
SEED = 2003
JOBS = 4

RESULT_PATH = Path(__file__).resolve().parent / "results" / "BENCH_batch.json"


def build_world():
    """Reference relation + ETI + a repeated-tuple dirty batch."""
    customers = generate_customers(REFERENCE_SIZE, seed=SEED, unique=True)
    rows = [(c.tid, c.values) for c in customers]
    db = Database.in_memory()
    reference = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
    reference.load(rows)
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    config = MatchConfig(q=4, signature_size=2, use_osc=True)
    eti, _ = build_eti(db, reference, config)

    dataset = make_dataset(
        rows, DatasetSpec.preset("D2"), DISTINCT_INPUTS, seed=SEED + 1
    )
    distinct = [dirty.values for dirty in dataset.inputs]
    batch = distinct * REPEATS
    random.Random(SEED + 2).shuffle(batch)
    return db, reference, weights, config, eti, batch


def extract(results):
    """Comparable view of the matches: [(tid, similarity), ...] per query."""
    return [
        [(match.tid, match.similarity) for match in result.matches]
        for result in results
    ]


def run_modes(reference, weights, config, eti, batch):
    """Time each execution mode on the same batch; verify identical output."""
    modes = []

    seed_matcher = FuzzyMatcher(
        reference, weights, config, eti, caches=MatcherCaches.disabled()
    )
    started = time.perf_counter()
    seed_results = [seed_matcher.match(values) for values in batch]
    seed_seconds = time.perf_counter() - started
    baseline = extract(seed_results)
    modes.append(
        {
            "name": "seed_sequential",
            "seconds": seed_seconds,
            "queries_per_second": len(batch) / seed_seconds,
            "cache_counters": seed_matcher.caches.counters(),
        }
    )

    cached_matcher = FuzzyMatcher(reference, weights, config, eti)
    started = time.perf_counter()
    cached_results = cached_matcher.match_many(batch)
    cached_seconds = time.perf_counter() - started
    assert extract(cached_results) == baseline, "cached results diverged"
    modes.append(
        {
            "name": "cached_sequential",
            "seconds": cached_seconds,
            "queries_per_second": len(batch) / cached_seconds,
            "cache_counters": cached_matcher.caches.counters(),
        }
    )

    for name, executor in (("cached_jobs4", "thread"), ("process_jobs4", "process")):
        if (os.cpu_count() or 1) < JOBS:
            modes.append({"name": name, "executor": executor, "skipped": "cpus < jobs"})
            continue
        with BatchMatcher(
            reference, weights, config, eti, jobs=JOBS, executor=executor
        ) as engine:
            started = time.perf_counter()
            results = engine.match_many(batch)
            seconds = time.perf_counter() - started
            assert extract(results) == baseline, f"{name} results diverged"
            mode = {
                "name": name,
                "executor": engine.executor,
                "seconds": seconds,
                "queries_per_second": len(batch) / seconds,
                "deduplicated_queries": engine.last_report.deduplicated_queries,
            }
            if executor == "thread":  # process workers' counters stay in the workers
                mode["cache_counters"] = engine.cache_counters()
            modes.append(mode)

    seed_qps = modes[0]["queries_per_second"]
    for mode in modes:
        if "skipped" not in mode:
            mode["speedup_vs_seed"] = mode["queries_per_second"] / seed_qps
    return modes


def main() -> int:
    """Run the trajectory, print it, and write ``BENCH_batch.json``."""
    db, reference, weights, config, eti, batch = build_world()
    try:
        modes = run_modes(reference, weights, config, eti, batch)
    finally:
        db.close()

    payload = {
        "benchmark": "batch_engine_throughput",
        "cpus": os.cpu_count() or 1,
        "workload": {
            "reference_size": REFERENCE_SIZE,
            "batch_size": len(batch),
            "distinct_inputs": DISTINCT_INPUTS,
            "repeats": REPEATS,
            "strategy": "osc",
            "dataset_preset": "D2",
        },
        "modes": modes,
    }
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"batch of {len(batch)} queries ({DISTINCT_INPUTS} distinct), "
          f"reference {REFERENCE_SIZE}")
    for mode in modes:
        outcome = (
            f"skipped ({mode['skipped']})"
            if "skipped" in mode
            else f"{mode['queries_per_second']:8.1f} q/s "
            f"({mode['speedup_vs_seed']:.2f}x vs seed)"
        )
        print(f"  {mode['name']:>17}: {outcome}")
    best = max(mode["speedup_vs_seed"] for mode in modes[1:] if "skipped" not in mode)
    print(f"best speedup vs seed sequential: {best:.2f}x")
    if best < 2.0:
        print("WARNING: below the 2x acceptance target", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
