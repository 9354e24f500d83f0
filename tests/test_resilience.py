"""The resilience layer: checksums, retries, budgets, breakers, fallback.

Three levels under test, bottom-up:

- storage: the CRC32 ledger in :class:`BufferPool`, retry/backoff on
  :class:`TransientIOError`, and the :class:`FaultInjector` wrapper's
  determinism and fault taxonomy;
- query: :class:`Deadline` degradation (time and physical reads),
  :class:`CircuitBreaker` state machine, and the ``osc → basic → naive``
  fallback chain in :class:`FuzzyMatcher`;
- batch: per-item fault isolation (``fail_fast=False``) in
  :meth:`FuzzyMatcher.match_many`, counted by :class:`BatchReport`.

The randomized end-to-end invariant lives in ``test_chaos.py``; these are
the deterministic unit and integration contracts.
"""

import math

import pytest

from repro.core.batch import BatchReport
from repro.core.matcher import FuzzyMatcher
from repro.core.resilience import (
    DEGRADED_DEADLINE,
    DEGRADED_PAGE_FETCHES,
    CircuitBreaker,
    Deadline,
    ResiliencePolicy,
    RetryPolicy,
    fallback_chain,
)
from repro.db.errors import (
    BufferPoolError,
    PageCorruptionError,
    RetryExhaustedError,
    TransientIOError,
)
from repro.db.faults import FaultConfig, FaultInjector
from repro.db.page import PAGE_SIZE
from repro.db.pager import (
    BufferPool,
    FileStorage,
    InMemoryStorage,
    page_checksum,
)
from repro.eti.index import EtiIndex

from tests.test_cache import threaded_match_many

FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0)


def write_page(pool, page_no, payload: bytes):
    """Scribble ``payload`` into a page through the pool and flush it."""
    page = pool.get_page(page_no)
    page.data[: len(payload)] = payload
    page.dirty = True
    pool.flush()


class TestRetryPolicy:
    def test_delay_is_capped_exponential(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=0.05)
        assert policy.delay(0) == pytest.approx(0.01)
        assert policy.delay(1) == pytest.approx(0.02)
        assert policy.delay(2) == pytest.approx(0.04)
        assert policy.delay(3) == pytest.approx(0.05)  # capped
        assert policy.delay(10) == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestStorageBounds:
    def test_in_memory_out_of_range_is_typed(self):
        storage = InMemoryStorage()
        storage.allocate()
        with pytest.raises(BufferPoolError, match="page 7 out of range"):
            storage.read(7)
        with pytest.raises(BufferPoolError, match="page 7 out of range"):
            storage.write(7, bytes(PAGE_SIZE))

    def test_file_out_of_range_is_typed(self, tmp_path):
        storage = FileStorage(str(tmp_path / "pages.db"))
        storage.allocate()
        try:
            with pytest.raises(BufferPoolError, match="page 3 out of range"):
                storage.read(3)
            with pytest.raises(BufferPoolError, match="page 3 out of range"):
                storage.write(3, bytes(PAGE_SIZE))
        finally:
            storage.close()


class TestChecksumLedger:
    def test_writes_record_and_reads_verify(self):
        pool = BufferPool(InMemoryStorage(), capacity=2)
        page_no = pool.allocate_page()
        write_page(pool, page_no, b"hello pages")
        expected = pool.checksum(page_no)
        assert expected == page_checksum(pool.storage.read(page_no))
        pool.drop_cache()
        assert bytes(pool.get_page(page_no).data[:11]) == b"hello pages"
        assert pool.stats.checksum_failures == 0

    def test_silent_underlying_corruption_is_caught(self):
        storage = InMemoryStorage()
        pool = BufferPool(storage, capacity=2, retry_policy=FAST_RETRY)
        page_no = pool.allocate_page()
        write_page(pool, page_no, b"important")
        pool.drop_cache()
        # Corrupt the stored bytes behind the pool's back.
        raw = bytearray(storage.read(page_no))
        raw[0] ^= 0xFF
        storage._pages[page_no] = bytes(raw)
        with pytest.raises(PageCorruptionError) as excinfo:
            pool.get_page(page_no)
        assert excinfo.value.page_no == page_no
        assert str(page_no) in str(excinfo.value)

    def test_verification_can_be_disabled(self):
        storage = InMemoryStorage()
        pool = BufferPool(storage, capacity=2, verify_checksums=False)
        page_no = pool.allocate_page()
        write_page(pool, page_no, b"data")
        pool.drop_cache()
        raw = bytearray(storage.read(page_no))
        raw[0] ^= 0xFF
        storage._pages[page_no] = bytes(raw)
        pool.get_page(page_no)  # unverified: corrupt bytes flow through
        assert pool.stats.checksum_failures == 0


class TestFaultInjector:
    def test_disarmed_injects_nothing(self):
        injector = FaultInjector(
            InMemoryStorage(), FaultConfig(read_error_rate=1.0), seed=1
        )
        page_no = injector.allocate()
        injector.read(page_no)
        assert injector.stats.total == 0

    def test_seed_reproducibility(self):
        def run(seed):
            injector = FaultInjector(
                InMemoryStorage(),
                FaultConfig(read_error_rate=0.5, read_corruption_rate=0.3),
                seed=seed,
                armed=True,
            )
            page_no = injector.inner.allocate()
            events = []
            for _ in range(50):
                try:
                    injector.read(page_no)
                    events.append("ok")
                except TransientIOError:
                    events.append("err")
            return events, injector.stats.total

        assert run(42) == run(42)
        assert run(42) != run(43)

    def test_max_faults_caps_damage(self):
        injector = FaultInjector(
            InMemoryStorage(),
            FaultConfig(read_error_rate=1.0, max_faults=3),
            armed=True,
        )
        page_no = injector.inner.allocate()
        errors = 0
        for _ in range(10):
            try:
                injector.read(page_no)
            except TransientIOError:
                errors += 1
        assert errors == 3
        assert injector.stats.total == 3

    def test_torn_write_persists_only_a_prefix(self):
        storage = InMemoryStorage()
        injector = FaultInjector(
            storage, FaultConfig(torn_write_rate=1.0), seed=5, armed=True
        )
        page_no = injector.inner.allocate()
        data = bytes(range(256)) * (PAGE_SIZE // 256)
        injector.write(page_no, data)
        stored = storage.read(page_no)
        assert stored != data
        cut = next(
            i for i, (a, b) in enumerate(zip(stored, data)) if a != b
        )
        assert stored[:cut] == data[:cut]
        assert stored[cut:] == bytes(PAGE_SIZE - cut)


class TestPoolUnderFaults:
    def make_pool(self, config, seed=0, **kwargs):
        injector = FaultInjector(InMemoryStorage(), config, seed=seed)
        pool = BufferPool(
            injector, capacity=2, retry_policy=FAST_RETRY, **kwargs
        )
        return pool, injector

    def test_transient_read_errors_are_retried(self):
        pool, injector = self.make_pool(FaultConfig(read_error_rate=0.6), seed=3)
        page_no = pool.allocate_page()
        write_page(pool, page_no, b"resilient")
        injector.arm()
        for _ in range(20):
            pool.drop_cache()
            injector.disarm()
            pool.flush()
            injector.arm()
            assert bytes(pool.get_page(page_no).data[:9]) == b"resilient"
        assert pool.stats.read_retries > 0

    def test_retry_exhaustion_is_typed(self):
        pool, injector = self.make_pool(FaultConfig(read_error_rate=1.0))
        page_no = pool.allocate_page()
        pool.drop_cache()
        injector.arm()
        with pytest.raises(RetryExhaustedError) as excinfo:
            pool.get_page(page_no)
        assert excinfo.value.page_no == page_no
        assert isinstance(excinfo.value.__cause__, TransientIOError)

    def test_transient_read_corruption_heals_via_reread(self):
        # Corrupt the *returned* bytes on some reads: the checksum catches
        # it and the re-read (stored page intact) recovers.
        pool, injector = self.make_pool(
            FaultConfig(read_corruption_rate=0.3), seed=9
        )
        page_no = pool.allocate_page()
        write_page(pool, page_no, b"clean bytes")
        injector.arm()
        healed = 0
        for _ in range(40):
            pool.drop_cache()
            failures_before = pool.stats.checksum_failures
            try:
                page = pool.get_page(page_no)
            except PageCorruptionError:
                continue  # every retry drew a corrupted read: still typed
            assert bytes(page.data[:11]) == b"clean bytes"
            if pool.stats.checksum_failures > failures_before:
                healed += 1
        assert healed > 0

    def test_torn_write_raises_corruption_not_retryable(self):
        pool, injector = self.make_pool(FaultConfig(torn_write_rate=1.0))
        page_no = pool.allocate_page()
        injector.arm()
        # Non-zero page bytes throughout, so any tear changes the content.
        write_page(pool, page_no, bytes(range(1, 256)) * (PAGE_SIZE // 255))
        injector.disarm()
        pool._cache.clear()  # force the next read physical, without flushing
        with pytest.raises(PageCorruptionError) as excinfo:
            pool.get_page(page_no)
        assert excinfo.value.page_no == page_no


class ManualClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_after_remaining_expired(self):
        clock = ManualClock()
        deadline = Deadline.after(5.0, clock=clock)
        assert deadline.remaining() == pytest.approx(5.0)
        assert not deadline.expired()
        clock.advance(4.0)
        assert deadline.remaining() == pytest.approx(1.0)
        clock.advance(2.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0  # clamped, never negative


class TestQueryBudget:
    """A query's budget is the :class:`Deadline` the matcher polls: an
    instant, optionally capped at a number of physical page reads."""

    def test_validation(self):
        pool = BufferPool(InMemoryStorage(), capacity=2)
        with pytest.raises(ValueError):
            Deadline(math.inf).capped(pool, -1)
        with pytest.raises(ValueError):
            ResiliencePolicy(deadline_ms=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(max_page_fetches=-1)

    def test_meter_deadline(self):
        """The poll reads the injected clock."""
        clock = ManualClock()
        deadline = Deadline.after(5.0, clock=clock)
        assert deadline.exhausted() is None
        clock.advance(5.0)
        assert deadline.exhausted() == DEGRADED_DEADLINE

    def test_meter_page_fetches(self):
        """Reads count from when the cap is set (the query's start)."""
        pool = BufferPool(InMemoryStorage(), capacity=2)
        page_no = pool.allocate_page()
        pool.flush()

        def physical_read():
            pool.drop_cache()
            pool.get_page(page_no)

        for _ in range(5):
            physical_read()  # before the query started: never charged
        deadline = Deadline(math.inf).capped(pool, 2)
        physical_read()
        assert deadline.exhausted() is None
        physical_read()
        assert deadline.exhausted() == DEGRADED_PAGE_FETCHES

    def test_zero_fetch_budget_is_immediately_exhausted(self):
        pool = BufferPool(InMemoryStorage(), capacity=2)
        deadline = Deadline(math.inf).capped(pool, 0)
        assert deadline.exhausted() == DEGRADED_PAGE_FETCHES

    def test_deadline_reason_wins_over_the_read_cap(self):
        clock = ManualClock()
        pool = BufferPool(InMemoryStorage(), capacity=2)
        deadline = Deadline.after(1.0, clock=clock).capped(pool, 0)
        assert deadline.exhausted() == DEGRADED_PAGE_FETCHES
        clock.advance(1.0)
        assert deadline.exhausted() == DEGRADED_DEADLINE
        assert deadline.remaining() == 0.0


class TestCircuitBreakerCooldown:
    """Time-based half-open recovery (the serving layer's mode)."""

    def make(self, clock):
        return CircuitBreaker(failure_threshold=1, cooldown_s=10.0, clock=clock)

    def test_closed_open_half_open_closed(self):
        clock = ManualClock()
        breaker = self.make(clock)
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # cooling down: no trials
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()  # cooldown elapsed: one probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # probe in flight: nobody else
        breaker.record_success()
        assert breaker.state == "closed"
        assert all(breaker.allow() for _ in range(5))

    def test_failed_probe_retrips_and_restarts_cooldown(self):
        clock = ManualClock()
        breaker = self.make(clock)
        breaker.record_failure()
        clock.advance(10.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert not breaker.allow()  # the cooldown restarted at the re-trip
        clock.advance(10.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_count_based_mode_unchanged_without_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, half_open_interval=4)
        breaker.record_failure()
        assert breaker.state == "open"  # never "half_open" in count mode
        decisions = [breaker.allow() for _ in range(4)]
        assert decisions == [False, False, False, True]

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1.0)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 1

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_trial_cadence(self):
        breaker = CircuitBreaker(failure_threshold=1, half_open_interval=4)
        breaker.record_failure()
        decisions = [breaker.allow() for _ in range(8)]
        assert decisions == [False, False, False, True, False, False, False, True]

    def test_successful_trial_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, half_open_interval=1)
        breaker.record_failure()
        assert breaker.allow()  # immediate half-open trial
        breaker.record_success()
        assert breaker.state == "closed"
        assert all(breaker.allow() for _ in range(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_interval=0)


class TestFallbackChain:
    def test_chains(self):
        assert fallback_chain("osc") == ("osc", "basic", "naive")
        assert fallback_chain("basic") == ("basic", "naive")
        assert fallback_chain("naive") == ("naive",)
        assert fallback_chain("custom") == ("custom",)


class FlakyEti(EtiIndex):
    """An ETI whose lookups raise for the first ``failures`` calls."""

    def __init__(self, relation, failures):
        super().__init__(relation)
        self.failures = failures

    def lookup(self, qgram, coordinate, column):
        if self.failures > 0:
            self.failures -= 1
            raise TransientIOError("injected ETI lookup fault")
        return super().lookup(qgram, coordinate, column)


class TestMatcherResilience:
    def make_matcher(self, org_reference, org_weights, paper_config, eti,
                     policy=None):
        return FuzzyMatcher(
            org_reference, org_weights, paper_config, eti, resilience=policy
        )

    def test_no_policy_keeps_seed_behaviour(
        self, org_reference, org_weights, paper_config, org_eti
    ):
        flaky = FlakyEti(org_eti.relation, failures=10**6)
        matcher = self.make_matcher(org_reference, org_weights, paper_config, flaky)
        with pytest.raises(TransientIOError):
            matcher.match(("Beoing Company", "Seattle", "WA", "98004"))

    def test_fallback_to_naive_is_flagged(
        self, org_reference, org_weights, paper_config, org_eti
    ):
        flaky = FlakyEti(org_eti.relation, failures=10**6)
        policy = ResiliencePolicy()
        matcher = self.make_matcher(
            org_reference, org_weights, paper_config, flaky, policy
        )
        result = matcher.match(("Beoing Company", "Seattle", "WA", "98004"))
        assert result.best is not None and result.best.tid == 1
        assert result.stats.strategy == "naive"
        assert result.stats.degraded
        assert result.stats.fallback_from == "osc"
        assert result.stats.degraded_reason == "fallback:TransientIOError"

    def test_fallback_answer_matches_clean_naive(
        self, org_reference, org_weights, paper_config, org_eti
    ):
        clean = self.make_matcher(org_reference, org_weights, paper_config, org_eti)
        flaky = FlakyEti(org_eti.relation, failures=10**6)
        faulty = self.make_matcher(
            org_reference, org_weights, paper_config, flaky, ResiliencePolicy()
        )
        query = ("Beoing Co.", "Seattle", "WA", "98004")
        expected = clean.match(query, strategy="naive", k=2)
        got = faulty.match(query, k=2)
        assert [(m.tid, m.similarity) for m in got.matches] == [
            (m.tid, m.similarity) for m in expected.matches
        ]

    def test_breaker_trips_and_circuit_open_skips_eti(
        self, org_reference, org_weights, paper_config, org_eti
    ):
        flaky = FlakyEti(org_eti.relation, failures=10**6)
        policy = ResiliencePolicy(breaker=CircuitBreaker(failure_threshold=2))
        matcher = self.make_matcher(
            org_reference, org_weights, paper_config, flaky, policy
        )
        matcher.match(("Beoing Company", "Seattle", "WA", "98004"))
        assert policy.breaker.state == "open"  # osc+basic both failed
        result = matcher.match(("Bon Corporation", "Seattle", "WA", "98014"))
        assert result.stats.degraded_reason == "circuit_open"
        assert result.stats.strategy == "naive"
        assert result.best is not None

    def test_breaker_recovers_after_transient_outage(
        self, org_reference, org_weights, paper_config, org_eti
    ):
        flaky = FlakyEti(org_eti.relation, failures=4)
        policy = ResiliencePolicy(
            breaker=CircuitBreaker(failure_threshold=1, half_open_interval=1)
        )
        matcher = self.make_matcher(
            org_reference, org_weights, paper_config, flaky, policy
        )
        matcher.match(("Beoing Company", "Seattle", "WA", "98004"))
        assert policy.breaker.state == "open"
        for _ in range(6):  # half-open trials drain the remaining failures
            result = matcher.match(("Beoing Company", "Seattle", "WA", "98004"))
        assert policy.breaker.state == "closed"
        assert result.stats.strategy == "osc"
        assert not result.stats.degraded

    def test_zero_fetch_budget_degrades_indexed_query(
        self, org_reference, org_weights, paper_config, org_eti
    ):
        policy = ResiliencePolicy(max_page_fetches=0)
        matcher = self.make_matcher(
            org_reference, org_weights, paper_config, org_eti, policy
        )
        matcher._pool().drop_cache()
        result = matcher.match(("Beoing Company", "Seattle", "WA", "98004"))
        assert result.stats.degraded
        assert result.stats.degraded_reason == DEGRADED_PAGE_FETCHES

    def test_read_cap_is_anchored_at_each_query_start(
        self, org_reference, org_weights, paper_config, org_eti
    ):
        query = ("Beoing Company", "Seattle", "WA", "98004")
        unlimited = self.make_matcher(org_reference, org_weights, paper_config, org_eti)
        pool = unlimited._pool()
        pool.drop_cache()
        before = pool.stats.physical_reads
        expected = unlimited.match(query)
        reads = pool.stats.physical_reads - before
        assert reads >= 1
        # One query's worth of reads (plus one) per query: a cap counted
        # from when the policy was made would trip on the second query.
        policy = ResiliencePolicy(max_page_fetches=reads + 1)
        matcher = self.make_matcher(
            org_reference, org_weights, paper_config, org_eti, policy
        )
        for _ in range(2):
            pool.drop_cache()
            result = matcher.match(query)
            assert not result.stats.degraded
            assert result.matches == expected.matches

    def test_call_site_deadline_overrides_policy(
        self, org_reference, org_weights, paper_config, org_eti
    ):
        policy = ResiliencePolicy(deadline_ms=60_000)
        matcher = self.make_matcher(
            org_reference, org_weights, paper_config, org_eti, policy
        )
        query = ("Beoing Company", "Seattle", "WA", "98004")
        assert not matcher.match(query).stats.degraded
        spent = Deadline(0.0)  # an instant long past on the monotonic clock
        result = matcher.match(query, deadline=spent)
        assert result.stats.degraded
        assert result.stats.degraded_reason == DEGRADED_DEADLINE

    def test_call_site_budget_overrides_policy(
        self, org_reference, org_weights, paper_config, org_eti
    ):
        policy = ResiliencePolicy(max_page_fetches=0)
        matcher = self.make_matcher(
            org_reference, org_weights, paper_config, org_eti, policy
        )
        result = matcher.match(
            ("Beoing Company", "Seattle", "WA", "98004"),
            max_page_fetches=10**9,
        )
        assert not result.stats.degraded

    def test_arity_errors_never_fall_back(
        self, org_reference, org_weights, paper_config, org_eti
    ):
        matcher = self.make_matcher(
            org_reference, org_weights, paper_config, org_eti, ResiliencePolicy()
        )
        with pytest.raises(ValueError):
            matcher.match(("too", "few"))


class TestBatchIsolation:
    def test_fail_fast_false_isolates_per_item(
        self, org_reference, org_weights, paper_config, org_eti
    ):
        flaky = FlakyEti(org_eti.relation, failures=10**6)
        matcher = FuzzyMatcher(org_reference, org_weights, paper_config, flaky)
        batch = [("Beoing Company", "Seattle", "WA", "98004")] * 3
        results = matcher.match_many(batch, strategy="osc", fail_fast=False)
        assert all(r.failed for r in results)
        assert all(r.error_type == "TransientIOError" for r in results)
        report = BatchReport.from_results(results, 0.0)
        assert report.failed_queries == 3

    def test_fail_fast_true_raises(
        self, org_reference, org_weights, paper_config, org_eti
    ):
        flaky = FlakyEti(org_eti.relation, failures=10**6)
        matcher = FuzzyMatcher(org_reference, org_weights, paper_config, flaky)
        with pytest.raises(TransientIOError):
            matcher.match_many(
                [("Beoing Company", "Seattle", "WA", "98004")] * 2,
                strategy="osc",
                fail_fast=True,
            )

    def test_mixed_batch_good_items_survive(
        self, org_reference, org_weights, paper_config, org_eti
    ):
        # Fail exactly the first query's ETI path; later queries succeed.
        flaky = FlakyEti(org_eti.relation, failures=1)
        matcher = FuzzyMatcher(
            org_reference, org_weights, paper_config, flaky,
            resilience=ResiliencePolicy(fallback=False),
        )
        batch = [
            ("Beoing Company", "Seattle", "WA", "98004"),
            ("Bon Corporation", "Seattle", "WA", "98014"),
        ]
        results = matcher.match_many(batch, strategy="osc", fail_fast=False)
        assert results[0].failed
        assert not results[1].failed and results[1].best.tid == 2
        report = BatchReport.from_results(results, 0.0)
        assert report.failed_queries == 1

    def test_parallel_isolation(
        self, org_reference, org_weights, paper_config, org_eti
    ):
        """Threads sharing one matcher, as server workers do: each one's
        storage failures stay in its own items' results."""
        flaky = FlakyEti(org_eti.relation, failures=10**6)
        matcher = FuzzyMatcher(org_reference, org_weights, paper_config, flaky)
        batch = [
            ("Beoing Company", "Seattle", "WA", "98004"),
            ("Bon Corporation", "Seattle", "WA", "98014"),
            ("Companions", "Seattle", "WA", "98024"),
        ]
        results = threaded_match_many(
            matcher, batch, 2, strategy="basic", fail_fast=False
        )
        assert len(results) == 3
        assert all(r.failed for r in results)


class TestSnapshotChecksums:
    def build_and_save(self, tmp_path):
        from repro.db.database import Database
        from repro.db.snapshot import save_database
        from repro.db.types import Column, ColumnType

        path = str(tmp_path / "pages.db")
        db = Database.on_disk(path)
        relation = db.create_relation(
            "t", [Column("a", ColumnType.STR), Column("b", ColumnType.INT)]
        )
        for i in range(200):
            relation.insert((f"row-{i}", i))
        save_database(db)
        db.close()
        return path

    def test_clean_roundtrip_verifies(self, tmp_path):
        from repro.db.snapshot import load_database

        path = self.build_and_save(tmp_path)
        db = load_database(path)
        assert len(db.relation("t")) == 200
        assert db.pool.page_checksums()  # ledger primed from the snapshot
        db.close()

    def test_bit_rot_is_named_at_load(self, tmp_path):
        from repro.db.snapshot import load_database

        path = self.build_and_save(tmp_path)
        # Flip one byte in page 0.
        with open(path, "r+b") as handle:
            handle.seek(100)
            byte = handle.read(1)
            handle.seek(100)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(PageCorruptionError) as excinfo:
            load_database(path)
        assert excinfo.value.page_no == 0
        assert "page 0" in str(excinfo.value)

    def test_metadata_page_count_mismatch(self, tmp_path):
        from repro.db.errors import DatabaseError
        from repro.db.snapshot import load_database

        path = self.build_and_save(tmp_path)
        with open(path, "ab") as handle:  # grow the file by a page
            handle.write(bytes(PAGE_SIZE))
        with pytest.raises(DatabaseError, match="pages"):
            load_database(path)
