"""Verification-kernel benchmarks: bit-parallel ed, budgeted DP, multicore.

Three measurements back the verification fast path (see
``docs/INTERNALS.md``), all parity-checked before any timing is trusted:

1. **Kernel micro-benchmark** — classic two-row DP vs Myers bit-parallel
   vs the banded/thresholded kernel over seeded random token pairs,
   bucketed by token length.  Every pair is first asserted to produce the
   same distance from every kernel (and the banded kernel to honour its
   certified-lower-bound contract).
2. **End-to-end budgeted verification** — the same query workload with
   ``budgeted_verification`` on and off, asserting bit-identical top-K
   and reporting the DP-cell / edit-distance-call reductions from the
   :data:`repro.core.fms.COUNTERS` and :data:`repro.core.kernels.COUNTERS`
   deltas.
3. **Executor scaling** — thread vs process pools at jobs ∈ {1, 2, 4}
   over one batch, bit-identical outputs asserted.  The ``cpus`` field
   records what the numbers mean: on a single-core container the process
   pool pays fork + IPC overhead with no parallelism to buy back, so its
   numbers are honest but unflattering there.

Results go to ``benchmarks/results/BENCH_kernels.json``.  ``--smoke`` runs
a scaled-down version for CI and writes nothing: it exits nonzero if any
parity check fails or the Myers kernel fails to at least match the classic
DP on tokens of ≥ 8 characters.

Run directly: ``PYTHONPATH=src python benchmarks/bench_kernels.py``.
"""

from __future__ import annotations

import json
import os
import random
import string
import sys
import time
from pathlib import Path

from repro.core.batch import BatchMatcher
from repro.core.config import MatchConfig
from repro.core.fms import COUNTERS as FMS_COUNTERS
from repro.core.kernels import (
    COUNTERS as KERNEL_COUNTERS,
    bounded_distance,
    classic_distance,
    myers_distance,
)
from repro.core.matcher import FuzzyMatcher
from repro.core.reference import ReferenceTable
from repro.core.strings import clear_edit_distance_caches
from repro.core.weights import build_frequency_cache
from repro.data.datasets import DatasetSpec, make_dataset
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.eti.builder import build_eti

SEED = 2003
RESULT_PATH = Path(__file__).resolve().parent / "results" / "BENCH_kernels.json"

# (bucket label, min length, max length) for the kernel micro-benchmark.
LENGTH_BUCKETS = (
    ("len_3_7", 3, 7),
    ("len_8_15", 8, 15),
    ("len_16_31", 16, 31),
    ("len_32_63", 32, 63),
    ("len_64_127", 64, 127),
)
ALPHABET = string.ascii_lowercase + " -'"


def make_pairs(rng, low, high, count):
    """Seeded token pairs in a length range, half of them near-duplicates."""
    pairs = []
    for index in range(count):
        length = rng.randint(low, high)
        s1 = "".join(rng.choice(ALPHABET) for _ in range(length))
        if index % 2:
            s2 = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(low, high)))
        else:
            chars = list(s1)
            for _ in range(rng.randint(1, max(1, length // 4))):
                op = rng.random()
                position = rng.randrange(len(chars)) if chars else 0
                if op < 0.4 and chars:
                    chars[position] = rng.choice(ALPHABET)
                elif op < 0.7 and chars:
                    del chars[position]
                else:
                    chars.insert(position, rng.choice(ALPHABET))
            s2 = "".join(chars) or rng.choice(ALPHABET)
        pairs.append((s1, s2))
    return pairs


def time_kernel(kernel, pairs, repeats):
    """Best-of-``repeats`` wall time for one kernel over all pairs."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for s1, s2 in pairs:
            kernel(s1, s2)
        best = min(best, time.perf_counter() - started)
    return best


def bench_kernels(pairs_per_bucket, repeats):
    """Micro-benchmark + parity assertion per length bucket."""
    rng = random.Random(SEED)
    buckets = []
    ge8_classic = 0.0
    ge8_myers = 0.0
    for label, low, high in LENGTH_BUCKETS:
        pairs = make_pairs(rng, low, high, pairs_per_bucket)
        for s1, s2 in pairs:
            classic = classic_distance(s1, s2)
            assert myers_distance(s1, s2) == classic, (s1, s2)
            limit = max(len(s1), len(s2)) // 3
            bounded = bounded_distance(s1, s2, limit)
            if classic <= limit:
                assert bounded == classic, (s1, s2, limit)
            else:
                assert limit < bounded <= classic, (s1, s2, limit)
        classic_seconds = time_kernel(classic_distance, pairs, repeats)
        myers_seconds = time_kernel(myers_distance, pairs, repeats)
        third = lambda s1, s2: bounded_distance(s1, s2, max(len(s1), len(s2)) // 3)
        banded_seconds = time_kernel(third, pairs, repeats)
        if low >= 8:
            ge8_classic += classic_seconds
            ge8_myers += myers_seconds
        buckets.append(
            {
                "bucket": label,
                "pairs": len(pairs),
                "classic_seconds": classic_seconds,
                "myers_seconds": myers_seconds,
                "banded_third_seconds": banded_seconds,
                "myers_speedup": classic_seconds / myers_seconds,
                "banded_speedup": classic_seconds / banded_seconds,
            }
        )
    return {
        "buckets": buckets,
        "myers_speedup_tokens_ge8": ge8_classic / ge8_myers,
    }


def build_world(reference_size, inputs):
    """Reference + ETI + dirty queries (same recipe as bench_batch)."""
    customers = generate_customers(reference_size, seed=SEED, unique=True)
    rows = [(c.tid, c.values) for c in customers]
    db = Database.in_memory()
    reference = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
    reference.load(rows)
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    config = MatchConfig(q=4, signature_size=2, use_osc=True, k=3)
    eti, _ = build_eti(db, reference, config)
    dataset = make_dataset(rows, DatasetSpec.preset("D2"), inputs, seed=SEED + 1)
    queries = [dirty.values for dirty in dataset.inputs]
    return db, reference, weights, config, eti, queries


def bench_budgeted(reference, weights, config, eti, queries, repeats):
    """End-to-end verify cost with the budget on vs off; identical top-K.

    Both matchers are warmed first (tokenization caches, interpreter
    specialization) and timed best-of-``repeats`` with the edit-distance
    memos cleared before every pass, so the on/off comparison measures
    the DP work, not cold-start effects.
    """
    results = {}
    outputs = {}
    for flag in (False, True):
        matcher = FuzzyMatcher(
            reference, weights, config.with_(budgeted_verification=flag), eti
        )
        for values in queries[: max(1, len(queries) // 6)]:
            matcher.match(values)
        seconds = float("inf")
        for _ in range(repeats):
            clear_edit_distance_caches()
            started = time.perf_counter()
            for values in queries:
                matcher.match(values)
            seconds = min(seconds, time.perf_counter() - started)
        clear_edit_distance_caches()
        fms_before = FMS_COUNTERS.snapshot()
        kernel_before = KERNEL_COUNTERS.snapshot()
        batch = [matcher.match(values) for values in queries]
        fms_after = FMS_COUNTERS.snapshot()
        kernel_after = KERNEL_COUNTERS.snapshot()
        outputs[flag] = [
            [(m.tid, m.similarity) for m in result.matches] for result in batch
        ]
        key = "budget_on" if flag else "budget_off"
        results[key] = {
            "seconds": seconds,
            "dp_cells": fms_after[0] - fms_before[0],
            "cutoff_prunes": fms_after[1] - fms_before[1],
            "budget_abandons": fms_after[2] - fms_before[2],
            "verify_budget_prunes": sum(
                result.stats.verify_budget_prunes for result in batch
            ),
            "classic_cells": kernel_after[1] - kernel_before[1],
            "myers_words": kernel_after[3] - kernel_before[3],
            "banded_cells": kernel_after[5] - kernel_before[5],
            "banded_early_exits": kernel_after[6] - kernel_before[6],
        }
    assert outputs[True] == outputs[False], "budgeted verification changed answers"
    on, off = results["budget_on"], results["budget_off"]
    results["dp_cells_saved_fraction"] = (
        1.0 - on["dp_cells"] / off["dp_cells"] if off["dp_cells"] else 0.0
    )
    results["verify_speedup"] = off["seconds"] / on["seconds"]
    return results


def bench_executors(reference, weights, config, eti, queries, repeats):
    """Thread vs process pools at jobs 1/2/4, bit-identical outputs.

    A row with more jobs than CPUs would measure oversubscription, not
    scaling, so it is recorded as skipped instead of as a number.
    """
    cpus = os.cpu_count() or 1
    sequential = FuzzyMatcher(reference, weights, config, eti)
    baseline = [
        [(m.tid, m.similarity) for m in result.matches]
        for result in [sequential.match(values) for values in queries]
    ]
    scaling = []
    for executor in ("thread", "process"):
        for jobs in (1, 2, 4):
            if jobs > cpus:
                scaling.append(
                    {"executor": executor, "jobs": jobs, "skipped": "cpus < jobs"}
                )
                continue
            engine = BatchMatcher(
                reference, weights, config, eti, jobs=jobs,
                executor=executor if jobs > 1 else "thread",
            )
            with engine:
                best = float("inf")
                for _ in range(repeats):
                    started = time.perf_counter()
                    results = engine.match_many(queries)
                    best = min(best, time.perf_counter() - started)
                got = [
                    [(m.tid, m.similarity) for m in result.matches]
                    for result in results
                ]
                assert got == baseline, f"{executor} jobs={jobs} diverged"
            scaling.append(
                {
                    "executor": engine.executor,
                    "jobs": jobs,
                    "seconds": best,
                    "queries_per_second": len(queries) / best,
                }
            )
    return scaling


def main(argv):
    """Run all three measurements and write ``BENCH_kernels.json``."""
    smoke = "--smoke" in argv
    pairs_per_bucket = 40 if smoke else 200
    repeats = 1 if smoke else 3
    reference_size = 300 if smoke else 1500
    inputs = 30 if smoke else 120

    kernels = bench_kernels(pairs_per_bucket, repeats)
    db, reference, weights, config, eti, queries = build_world(
        reference_size, inputs
    )
    try:
        budgeted = bench_budgeted(
            reference, weights, config, eti, queries, repeats
        )
        scaling = (
            [] if smoke else bench_executors(
                reference, weights, config, eti, queries, repeats=1
            )
        )
    finally:
        db.close()

    payload = {
        "benchmark": "verification_kernels",
        "cpus": os.cpu_count() or 1,
        "smoke": smoke,
        "kernels": kernels,
        "budgeted_verification": budgeted,
        "executor_scaling": scaling,
    }
    if not smoke:
        RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    for bucket in kernels["buckets"]:
        print(
            f"  {bucket['bucket']:>11}: myers {bucket['myers_speedup']:5.2f}x, "
            f"banded(limit=n/3) {bucket['banded_speedup']:5.2f}x vs classic"
        )
    ge8 = kernels["myers_speedup_tokens_ge8"]
    print(f"  myers speedup on tokens >= 8 chars: {ge8:.2f}x")
    print(
        f"  budgeted verify: {budgeted['verify_speedup']:.2f}x wall, "
        f"{100 * budgeted['dp_cells_saved_fraction']:.0f}% DP cells saved, "
        f"{budgeted['budget_on']['budget_abandons']} budget abandons, "
        f"identical top-K"
    )
    for mode in scaling:
        outcome = (
            f"skipped ({mode['skipped']})"
            if "skipped" in mode
            else f"{mode['queries_per_second']:7.1f} q/s"
        )
        print(f"  {mode['executor']:>7} jobs={mode['jobs']}: {outcome}")

    failed = False
    if ge8 < 1.0:
        print("FAIL: Myers slower than classic on >= 8-char tokens", file=sys.stderr)
        failed = True
    if budgeted["budget_on"]["dp_cells"] > budgeted["budget_off"]["dp_cells"]:
        print("FAIL: budgeted verification did not reduce DP cells", file=sys.stderr)
        failed = True
    if not smoke and ge8 < 3.0:
        print("WARNING: below the 3x acceptance target", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
