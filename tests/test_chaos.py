"""Chaos suite: the degraded-mode contract under seeded fault schedules.

The invariant (the tentpole of the resilience layer): for ANY injected
fault schedule, every query's outcome is exactly one of

1. bit-identical to the clean run (faults absorbed by retry/re-read),
2. flagged ``stats.degraded`` with a recorded reason, or
3. a typed :class:`~repro.db.errors.DatabaseError` (surfaced per-item
   when the batch runs with ``fail_fast=False``)

— never a silently wrong answer.  The sweep below replays the same
workload over many injector seeds; each seed produces a different fault
schedule from the same configuration, so the sweep covers transient read
errors, returned-buffer corruption, and their interleavings.

A separate deadline test drives the latency injector and checks the
paper-motivated online bound: a budgeted query returns within 2x its
requested deadline, flagged degraded, instead of stalling.
"""

import time

import pytest

from repro.core.cache import MatcherCaches
from repro.core.config import MatchConfig
from repro.core.matcher import FuzzyMatcher
from repro.core.reference import ReferenceTable
from repro.core.resilience import (
    DEGRADED_DEADLINE,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.core.weights import build_frequency_cache
from repro.data.datasets import DatasetSpec, make_dataset
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.db.faults import FaultConfig, FaultInjector
from repro.db.pager import BufferPool, InMemoryStorage
from repro.eti.builder import build_eti

pytestmark = pytest.mark.chaos

# Backoff with zero sleep: retry *logic* is under test, not wall clock.
FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0)

SWEEP_SEEDS = range(12)

SWEEP_FAULTS = FaultConfig(
    read_error_rate=0.02,
    read_corruption_rate=0.02,
)


def build_faulted_world(
    num_reference=120, num_inputs=25, pool_capacity=48, config=None
):
    """A reference + ETI over fault-injectable storage (built clean).

    The pool is deliberately small so queries keep going back to physical
    storage, where the injector lives; caches are disabled on matchers for
    the same reason.
    """
    injector = FaultInjector(InMemoryStorage(), seed=0)
    pool = BufferPool(injector, capacity=pool_capacity, retry_policy=FAST_RETRY)
    db = Database(pool)
    customers = generate_customers(num_reference, seed=21, unique=True)
    rows = [(c.tid, c.values) for c in customers]
    reference = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
    reference.load(rows)
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    if config is None:
        config = MatchConfig(q=4, signature_size=2)
    eti, _ = build_eti(db, reference, config)
    dataset = make_dataset(rows, DatasetSpec.preset("D2"), num_inputs, seed=22)
    batch = [dirty.values for dirty in dataset.inputs]
    return db, injector, pool, reference, weights, config, eti, batch


def uncached_matcher(reference, weights, config, eti, policy=None):
    return FuzzyMatcher(
        reference,
        weights,
        config,
        eti,
        caches=MatcherCaches.disabled(),
        resilience=policy,
    )


@pytest.fixture(scope="module")
def chaos_world():
    world = build_faulted_world()
    yield world
    world[0].close()


class TestChaosSweep:
    def test_every_outcome_is_accounted_for(self, chaos_world):
        (db, injector, pool, reference, weights, config, eti, batch) = chaos_world
        clean = uncached_matcher(reference, weights, config, eti)
        expected = [
            [(m.tid, m.similarity, m.values) for m in clean.match(v, k=2).matches]
            for v in batch
        ]

        outcomes = {"identical": 0, "degraded": 0, "error": 0}
        faults_fired = 0
        for seed in SWEEP_SEEDS:
            pool.drop_cache()
            injector.stats.reset()
            injector.arm(seed=seed, config=SWEEP_FAULTS)
            try:
                matcher = uncached_matcher(
                    reference, weights, config, eti, ResiliencePolicy()
                )
                results = matcher.match_many(batch, k=2, fail_fast=False)
            finally:
                injector.disarm()
            faults_fired += injector.stats.total

            for query_no, (result, clean_matches) in enumerate(
                zip(results, expected)
            ):
                if result.failed:
                    # Typed error, surfaced per-item: allowed outcome 3.
                    assert result.error_type, (seed, query_no)
                    outcomes["error"] += 1
                elif result.stats.degraded:
                    # Flagged best-effort answer: allowed outcome 2, and
                    # the reason must be recorded.
                    assert result.stats.degraded_reason, (seed, query_no)
                    outcomes["degraded"] += 1
                else:
                    # Claimed exact: must be bit-identical to the clean run.
                    got = [
                        (m.tid, m.similarity, m.values) for m in result.matches
                    ]
                    assert got == clean_matches, (seed, query_no)
                    outcomes["identical"] += 1

        # The sweep must actually have exercised the fault paths, and the
        # retry layer must have absorbed at least some faults invisibly.
        assert faults_fired > 0
        assert outcomes["identical"] > 0
        assert sum(outcomes.values()) == len(SWEEP_SEEDS) * len(batch)

    def test_sweep_is_reproducible_per_seed(self, chaos_world):
        (db, injector, pool, reference, weights, config, eti, batch) = chaos_world

        def run(seed):
            pool.drop_cache()
            injector.stats.reset()
            injector.arm(seed=seed, config=SWEEP_FAULTS)
            try:
                matcher = uncached_matcher(
                    reference, weights, config, eti, ResiliencePolicy()
                )
                results = matcher.match_many(batch[:10], k=2, fail_fast=False)
            finally:
                injector.disarm()
            return [
                (
                    r.error_type,
                    r.stats.degraded_reason,
                    [(m.tid, m.similarity) for m in r.matches],
                )
                for r in results
            ], injector.stats.total

        assert run(7) == run(7)

    def test_clean_run_after_sweep_is_exact(self, chaos_world):
        """Disarming restores bit-exact behaviour: no hidden state damage.

        (Read-only chaos: the injector never tears a page during the
        match-only phase, so the stored relations stay intact.)
        """
        (db, injector, pool, reference, weights, config, eti, batch) = chaos_world
        clean = uncached_matcher(reference, weights, config, eti)
        expected = [
            [(m.tid, m.similarity) for m in clean.match(v, k=2).matches]
            for v in batch[:10]
        ]
        injector.arm(seed=3, config=SWEEP_FAULTS)
        matcher = uncached_matcher(
            reference, weights, config, eti, ResiliencePolicy()
        )
        matcher.match_many(batch[:10], k=2, fail_fast=False)
        injector.disarm()
        pool.drop_cache()
        after = [
            [(m.tid, m.similarity) for m in clean.match(v, k=2).matches]
            for v in batch[:10]
        ]
        assert after == expected


class TestDeadline:
    def test_osc_returns_within_twice_the_deadline(self):
        """Latency-injected storage: the budget degrades instead of stalling.

        The capacity-1 pool forces every page access physical.  Latency and
        deadline are derived from the query's own measured read count, not
        from a page layout: each read sleeps up to ``latency`` (half that
        on average), so the unbudgeted query stalls for about
        ``reads * latency / 2`` — two deadlines — while one read stays
        small next to the deadline, which is what the 2x bound assumes
        (the overshoot is one index entry plus one candidate verification,
        a handful of reads).
        """
        (db, injector, pool, reference, weights, config, eti, batch) = (
            build_faulted_world(num_reference=800, num_inputs=6, pool_capacity=1)
        )
        try:
            unbudgeted = uncached_matcher(reference, weights, config, eti)

            def physical_reads(values):
                pool.drop_cache()
                before = pool.stats.physical_reads
                unbudgeted.match(values, k=1, strategy="osc")
                return pool.stats.physical_reads - before

            query = max(batch, key=physical_reads)
            reads = physical_reads(query)
            assert reads >= 12, f"only {reads} reads: too coarse for a 2x bound"
            latency = 0.02
            deadline = reads * latency / 4
            slow = FaultConfig(latency_rate=1.0, latency_seconds=latency)

            policy = ResiliencePolicy(deadline_ms=deadline * 1000.0)
            matcher = uncached_matcher(reference, weights, config, eti, policy)
            injector.arm(seed=1, config=slow)
            try:
                pool.drop_cache()
                started = time.perf_counter()
                result = matcher.match(query, k=1, strategy="osc")
                elapsed = time.perf_counter() - started
            finally:
                injector.disarm()
            assert result.stats.degraded
            assert result.stats.degraded_reason == DEGRADED_DEADLINE
            assert elapsed <= 2 * deadline, f"took {elapsed:.3f}s"
            # Without the budget the same query stalls well past the
            # deadline on this storage (sanity check on the setup).
            injector.arm(seed=1, config=slow)
            try:
                pool.drop_cache()
                started = time.perf_counter()
                unbudgeted.match(query, k=1, strategy="osc")
                slow_elapsed = time.perf_counter() - started
            finally:
                injector.disarm()
            assert slow_elapsed > deadline
        finally:
            db.close()

    def test_page_fetch_budget_bounds_physical_reads(self):
        (db, injector, pool, reference, weights, config, eti, batch) = (
            build_faulted_world(pool_capacity=4)
        )
        try:
            policy = ResiliencePolicy(max_page_fetches=1)
            matcher = uncached_matcher(reference, weights, config, eti, policy)
            pool.drop_cache()
            before = pool.stats.physical_reads
            result = matcher.match(batch[0], k=1, strategy="osc")
            fetched = pool.stats.physical_reads - before
            assert result.stats.degraded
            # The cap is checked between index entries, so the overshoot
            # is bounded by one entry's worth of reads, not unbounded.
            assert fetched <= 1 + 10
        finally:
            db.close()
