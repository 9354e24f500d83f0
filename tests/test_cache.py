"""The LRU cache, the per-token memos, and warm/cold parity.

The contract under test is twofold: the LRU cache must behave like a
cache (bounded, LRU eviction, accurate hit/miss/eviction accounting) and
every per-token memo must stay under its cap, and the state a matcher
keeps across queries — the reference relation's resident store and the
edit-distance memo — must be *invisible* in results: a warm matcher
returns bit-identical ``Match`` lists to a cold one (a fresh view of the
same relation, whose store its first query builds) on the synthetic
error-injected dataset, across every strategy, including after reference
and weight mutations.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.cache import MEMO_CAPACITY, BoundedMemo, LRUCache
from repro.core.config import MatchConfig, SignatureScheme
from repro.core.matcher import FuzzyMatcher, MatchStats
from repro.core.minhash import MinHasher
from repro.core.reference import ReferenceTable
from repro.core.weights import build_frequency_cache
from repro.data.datasets import DatasetSpec, make_dataset
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.eti.builder import build_eti
from repro.eti.weights import EtiWeightProvider


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b", "default") == "default"

    def test_counts_hits_and_misses(self):
        cache = LRUCache(4)
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        assert cache.misses.value() == 1
        assert cache.hits.value() == 2

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" is now LRU
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.evictions.value() == 1
        assert len(cache) == 2

    def test_capacity_is_a_hard_bound(self):
        cache = LRUCache(8)
        for i in range(100):
            cache.put(i, i)
        assert len(cache) == 8
        assert cache.evictions.value() == 92

    def test_disabled_cache_stores_nothing(self):
        cache = LRUCache(0)
        assert not cache.enabled
        for _ in range(3):
            cache.put("a", 1)
            assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.hits.value() == 0
        assert cache.misses.value() == 3

    def test_clear_keeps_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits.value() == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)


class TestBoundedMemos:
    """Every dict keyed by an input token stays under its cap."""

    CAP = 32

    def test_memo_clears_when_full(self):
        memo = BoundedMemo(3)
        for key in "abc":
            memo.store(key, key.upper())
        assert dict(memo) == {"a": "A", "b": "B", "c": "C"}
        memo.store("d", "D")
        assert dict(memo) == {"d": "D"}

    def test_a_full_memo_has_not_grown_its_table(self):
        """At ``MEMO_CAPACITY`` entries the dict's table is still the one it
        had below the cap: one entry more would grow it."""
        memo = BoundedMemo()
        for i in range(MEMO_CAPACITY):
            memo.store(i, 0.0)
        full = sys.getsizeof(memo)
        memo[-1] = 0.0  # one past the cap, bypassing store()
        assert sys.getsizeof(memo) > full

    def test_hasher_memo_is_bounded_and_rollover_keeps_signatures(self):
        hasher = MinHasher(q=3, num_hashes=2)
        hasher._memo.capacity = self.CAP
        tokens = [f"corporation{i:04d}" for i in range(self.CAP + 17)]
        before = [hasher.signature(token) for token in tokens]
        assert len(hasher._memo) <= self.CAP
        assert "corporation0000" not in hasher._memo  # rolled over
        assert [hasher.signature(token) for token in tokens] == before
        assert len(hasher._memo) <= self.CAP

    def test_queries_memoize_only_reference_tokens(self, org_db, org_reference):
        config = MatchConfig(q=3, signature_size=2)
        eti, _ = build_eti(org_db, org_reference, config)
        weights = build_frequency_cache(
            org_reference.scan_values(), org_reference.num_columns
        )
        matcher = FuzzyMatcher(org_reference, weights, config, eti)
        for i in range(20):
            matcher.match((f"boeing dirty{i:04d}", "seattle", "wa", "98004"))
        memo = matcher.hasher._memo
        assert "boeing" in memo and "seattle" in memo
        assert not any(token.startswith("dirty") for token in memo)
        # "seattle" is a reference city, never a reference name: its
        # signature was memoized for the column that holds it.
        assert weights.frequency("seattle", 0) == 0 < weights.frequency("seattle", 1)
        fresh = MinHasher(config.q, config.signature_size, config.seed)
        assert all(memo[token] == fresh.signature(token) for token in memo)

    def test_matcher_holds_no_per_token_container_above_its_cap(
        self, org_db, org_reference
    ):
        config = MatchConfig(
            q=3, signature_size=2, scheme=SignatureScheme.QGRAMS_PLUS_TOKEN
        )
        eti, _ = build_eti(org_db, org_reference, config)
        provider = EtiWeightProvider(
            eti, len(org_reference), org_reference.num_columns
        )
        matcher = FuzzyMatcher(org_reference, provider, config, eti)
        matcher.hasher._memo.capacity = self.CAP
        provider._memo.capacity = self.CAP
        for i in range(2 * self.CAP):
            matcher.match((f"boeing dirty{i:04d}", "seattle", "wa", "98004"))
        holders = (matcher.hasher, matcher.registry, provider)
        sized = [
            (type(holder).__name__, name, len(value))
            for holder in holders
            for name, value in vars(holder).items()
            if hasattr(value, "__len__")
        ]
        assert {name for _, name, _ in sized} >= {"_memo"}
        assert [entry for entry in sized if entry[2] > self.CAP] == []


def build_error_injected_world(num_reference=300, num_inputs=60, repeats=3):
    """A synthetic reference relation plus an error-injected dirty batch."""
    customers = generate_customers(num_reference, seed=11, unique=True)
    rows = [(c.tid, c.values) for c in customers]
    db = Database.in_memory()
    reference = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
    reference.load(rows)
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    config = MatchConfig(q=4, signature_size=2)
    eti, _ = build_eti(db, reference, config)
    dataset = make_dataset(rows, DatasetSpec.preset("D2"), num_inputs, seed=12)
    batch = [dirty.values for dirty in dataset.inputs] * repeats
    return db, reference, weights, config, eti, batch


def cold_matcher(db, reference, weights, config, eti):
    """A matcher over a fresh view of ``reference``'s relation in ``db``:
    its own resident store, built by its first indexed query."""
    view = ReferenceTable.attach(db, reference.name, reference.column_names)
    return FuzzyMatcher(view, weights, config, eti)


def result_view(results):
    return [
        [(match.tid, match.similarity, match.values) for match in result.matches]
        for result in results
    ]


def threaded_match_many(matcher, batch, threads, **kwargs):
    """``matcher.match_many`` over ``batch`` from ``threads`` threads at
    once, all sharing ``matcher`` as the server's workers do.

    Thread ``i`` matches every ``threads``-th item from ``i``; the results
    come back in input order.
    """
    batch = list(batch)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        chunks = list(
            pool.map(
                lambda i: matcher.match_many(batch[i::threads], **kwargs),
                range(threads),
            )
        )
    results = [None] * len(batch)
    for i, chunk in enumerate(chunks):
        results[i::threads] = chunk
    return results


@pytest.fixture(scope="module")
def error_world():
    db, reference, weights, config, eti, batch = build_error_injected_world()
    yield reference, weights, config, eti, batch, db
    db.close()


class TestCachedUncachedParity:
    """A warm matcher (store built, memos filled) equals a cold one."""

    @pytest.mark.parametrize("strategy", ["naive", "basic", "osc"])
    def test_identical_matches(self, error_world, strategy):
        reference, weights, config, eti, batch, db = error_world
        subset = batch if strategy != "naive" else batch[:30]
        cold = cold_matcher(db, reference, weights, config, eti)
        warm = FuzzyMatcher(reference, weights, config, eti)
        expected = result_view(
            [cold.match(values, k=3, strategy=strategy) for values in subset]
        )
        # Twice through the same matcher: the second pass runs hot.
        for _ in range(2):
            got = result_view(
                [warm.match(values, k=3, strategy=strategy) for values in subset]
            )
            assert got == expected

    def test_match_many_equals_per_tuple_match(self, error_world):
        reference, weights, config, eti, batch, _ = error_world
        matcher = FuzzyMatcher(reference, weights, config, eti)
        bulk = matcher.match_many(batch)
        singles = [matcher.match(values) for values in batch]
        assert result_view(bulk) == result_view(singles)

    def test_stats_report_cache_hits_on_repeat(self, error_world):
        """Every candidate row is read from the resident store."""
        reference, weights, config, eti, batch, _ = error_world
        matcher = FuzzyMatcher(reference, weights, config, eti)
        matcher.match(batch[0])
        repeat = matcher.match(batch[0])
        assert repeat.stats.reference_cache_hits >= repeat.stats.candidates_fetched > 0
        assert repeat.stats.reference_cache_misses == 0

    def test_candidates_fetched_unchanged_by_caching(self, error_world):
        """The Figure 8 metric counts logical fetches, warm or cold."""
        reference, weights, config, eti, batch, db = error_world
        warm = FuzzyMatcher(reference, weights, config, eti)
        for values in batch[:20]:
            cold = cold_matcher(db, reference, weights, config, eti)
            a = cold.match(values).stats.candidates_fetched
            warm.match(values)
            b = warm.match(values).stats.candidates_fetched  # hot run
            assert a == b

    def test_dangling_tid_caches_nothing(self, error_world):
        """A tid the relation does not hold verifies to −1, counts a miss
        and no fetch, and the store does not gain it."""
        reference, weights, config, eti, batch, _ = error_world
        matcher = FuzzyMatcher(reference, weights, config, eti)
        query = matcher._stage_signature(batch[0], 0.0, use_osc=False)
        stats, scored = MatchStats(), {}
        assert matcher._score_candidate(10**9, query, scored, stats) == (-1.0, ())
        assert (stats.reference_cache_hits, stats.reference_cache_misses) == (0, 1)
        assert stats.candidates_fetched == 0
        assert reference.row(10**9) is None

    def test_reference_mutation_invalidates_tokens(self, error_world):
        reference, weights, config, eti, batch, _ = error_world
        matcher = FuzzyMatcher(reference, weights, config, eti)
        matcher.match(batch[0])  # build the resident store
        tid, values = next(iter(reference.scan()))
        removed = reference.delete(tid)
        try:
            for strategy in ("naive", "basic"):
                result = matcher.match(removed, strategy=strategy, k=1)
                assert all(match.tid != tid for match in result.matches)
        finally:
            reference.insert(tid, removed)


class TestBatchInvalidationRace:
    """Mutations against one warm, shared matcher.

    One :class:`FuzzyMatcher` stays alive across batches and serves
    several threads at once, as it does for the server's workers.
    Mutating the weight provider changes what every later query weighs;
    mutating the reference relation changes its resident store in the
    same call.  The contract: after a mutation, no thread may answer from
    stale state — batch results must be bit-identical to a cold matcher's.
    (A reader racing the writer is
    ``tests/test_reference.py::TestResidentStore::test_a_reader_racing_a_writer_sees_only_held_rows``.)
    """

    def make_world(self):
        return build_error_injected_world(
            num_reference=150, num_inputs=20, repeats=2
        )

    def fresh_expected(self, db, reference, weights, config, eti, batch):
        matcher = cold_matcher(db, reference, weights, config, eti)
        return result_view([matcher.match(v, k=2) for v in batch])

    def test_weight_mutation_between_batches(self):
        db, reference, weights, config, eti, batch = self.make_world()
        try:
            matcher = FuzzyMatcher(reference, weights, config, eti)
            threaded_match_many(matcher, batch, 2, k=2)  # warm the memo
            weights.add_tuple(("zyzzyva consolidated", "outpost", "zz", "99999"))
            got = result_view(threaded_match_many(matcher, batch, 2, k=2))
            assert got == self.fresh_expected(db, reference, weights, config, eti, batch)
        finally:
            db.close()

    def test_reference_mutation_between_batches(self):
        db, reference, weights, config, eti, batch = self.make_world()
        try:
            matcher = FuzzyMatcher(reference, weights, config, eti)
            threaded_match_many(matcher, batch, 2, k=2)  # build the resident store
            tid, values = next(iter(reference.scan()))
            reference.delete(tid)
            reference.insert(tid, ("renamed entity",) + tuple(values[1:]))
            got = result_view(threaded_match_many(matcher, batch, 2, k=2))
            assert got == self.fresh_expected(db, reference, weights, config, eti, batch)
        finally:
            db.close()

    def test_weight_mutation_mid_batch_settles_exact(self):
        """A weight mutation racing four in-flight readers leaves nothing
        stale behind.

        The mid-flight batch itself may mix pre- and post-mutation weights
        (queries already running finish with what they started with); the
        guarantee under test is that the next quiesced batch is exact.
        """
        db, reference, weights, config, eti, batch = self.make_world()
        try:
            big_batch = batch * 4
            matcher = FuzzyMatcher(reference, weights, config, eti)
            threaded_match_many(matcher, batch, 4, k=2)  # warm the matcher

            def mutate():
                time.sleep(0.005)  # land mid-batch
                weights.add_tuple(
                    ("interleaved mutation inc", "midflight", "mm", "12121")
                )

            mutator = threading.Thread(target=mutate)
            mutator.start()
            racy = threaded_match_many(matcher, big_batch, 4, k=2)
            mutator.join()
            assert len(racy) == len(big_batch)

            got = result_view(threaded_match_many(matcher, batch, 4, k=2))
            assert got == self.fresh_expected(db, reference, weights, config, eti, batch)
        finally:
            db.close()
