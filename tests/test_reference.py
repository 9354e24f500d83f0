"""ReferenceTable: tid-indexed access, mutation, the change log."""

import sys
import threading

import pytest

from repro.core.cache import MatcherCaches
from repro.core.config import MatchConfig
from repro.core.matcher import FuzzyMatcher
from repro.core.reference import CHANGE_LOG_SIZE, ReferenceTable
from repro.core.weights import build_frequency_cache
from repro.db.database import Database
from repro.db.errors import DuplicateKeyError, RecordNotFoundError
from repro.eti.builder import build_eti


@pytest.fixture()
def table():
    db = Database.in_memory()
    reference = ReferenceTable(db, "r", ["name", "city"])
    reference.load(
        [
            (1, ("alpha one", "springfield")),
            (2, ("beta two", "shelbyville")),
            (5, ("gamma three", None)),
        ]
    )
    return reference


class TestAccess:
    def test_len(self, table):
        assert len(table) == 3

    def test_fetch(self, table):
        assert table.fetch(2) == ("beta two", "shelbyville")

    def test_fetch_null_column(self, table):
        assert table.fetch(5) == ("gamma three", None)

    def test_fetch_missing_tid(self, table):
        with pytest.raises(RecordNotFoundError):
            table.fetch(99)

    def test_contains(self, table):
        assert 1 in table
        assert 99 not in table

    def test_scan_order_and_shape(self, table):
        rows = list(table.scan())
        assert [tid for tid, _ in rows] == [1, 2, 5]
        assert all(len(values) == 2 for _, values in rows)

    def test_scan_values(self, table):
        assert list(table.scan_values())[0] == ("alpha one", "springfield")

    def test_fetch_counter(self):
        """A query counts its own fetches: with the cache off, every
        candidate it verifies is one fetch through the tid index."""
        db = Database.in_memory()
        table = ReferenceTable(db, "r", ["name", "city"])
        table.load([(1, ("alpha one", "springfield")), (2, ("alpha two", "springfield"))])
        config = MatchConfig(q=3, signature_size=2)
        eti, _ = build_eti(db, table, config)
        weights = build_frequency_cache(table.scan_values(), table.num_columns)
        matcher = FuzzyMatcher(
            table, weights, config, eti, caches=MatcherCaches.disabled()
        )
        fetched = []
        fetch = table.fetch
        table.fetch = lambda tid: fetched.append(tid) or fetch(tid)
        stats = matcher.match(("alpha one", "springfield"), k=2, strategy="basic").stats
        assert stats.reference_cache_misses == stats.candidates_fetched == len(fetched) == 2
        assert stats.reference_cache_hits == 0


class TestMutation:
    def test_insert(self, table):
        table.insert(9, ("delta four", "ogdenville"))
        assert table.fetch(9) == ("delta four", "ogdenville")

    def test_duplicate_tid_rejected(self, table):
        with pytest.raises(DuplicateKeyError):
            table.insert(1, ("dup", "x"))

    def test_load_rejects_a_duplicate_tid_before_writing_it(self, table):
        before = list(table.scan())
        version = table.version
        with pytest.raises(DuplicateKeyError):
            table.load([(7, ("new seven", "x")), (1, ("dup", "x")), (8, ("late", "x"))])
        # Row 7 came before the duplicate and is stored and indexed; the
        # duplicate and everything after it left nothing in heap or index.
        assert list(table.scan()) == before + [(7, ("new seven", "x"))]
        assert table.fetch(7) == ("new seven", "x")
        assert table.fetch(1) == before[0][1]
        assert 8 not in table
        assert table.version == version + 1

    def test_load_rejects_a_duplicate_inside_the_batch(self):
        db = Database.in_memory()
        table = ReferenceTable(db, "fresh", ["name"])
        with pytest.raises(DuplicateKeyError):
            table.load([(1, ("a",)), (1, ("again",))])
        assert list(table.scan()) == [(1, ("a",))]

    def test_load_wrong_arity_rejected(self, table):
        with pytest.raises(ValueError):
            table.load([(9, ("only-one-value",))])
        assert 9 not in table

    def test_wrong_arity_rejected(self, table):
        with pytest.raises(ValueError):
            table.insert(9, ("only-one-value",))

    def test_delete(self, table):
        values = table.delete(2)
        assert values == ("beta two", "shelbyville")
        assert 2 not in table
        assert len(table) == 2

    def test_delete_missing(self, table):
        with pytest.raises(RecordNotFoundError):
            table.delete(42)

    def test_empty_columns_rejected(self):
        db = Database.in_memory()
        with pytest.raises(ValueError):
            ReferenceTable(db, "r", [])


class TestAttach:
    def test_attach_wraps_existing(self):
        db = Database.in_memory()
        original = ReferenceTable(db, "r", ["name", "city"])
        original.load([(1, ("alpha", "town"))])
        attached = ReferenceTable.attach(db, "r", ["name", "city"])
        assert attached.fetch(1) == ("alpha", "town")
        # Both views share the underlying relation.
        attached.insert(2, ("beta", "city"))
        assert original.fetch(2) == ("beta", "city")

    def test_attach_schema_mismatch(self):
        db = Database.in_memory()
        ReferenceTable(db, "r", ["name", "city"])
        with pytest.raises(ValueError, match="columns"):
            ReferenceTable.attach(db, "r", ["wrong"])


class TestChangeLog:
    def test_changed_since_names_each_mutation_newest_first(self, table):
        start = table.version
        table.insert(9, ("delta four", "ogdenville"))
        table.delete(2)
        table.delete(9)
        assert table.version == start + 3
        assert table.changed_since(start) == [9, 2, 9]
        assert table.changed_since(start + 2) == [9]
        assert table.changed_since(table.version) == []

    def test_a_bulk_load_or_an_outrun_log_names_nothing(self, table):
        start = table.version
        table.insert(9, ("delta four", "ogdenville"))
        table.load([(10, ("epsilon", "x"))])
        assert table.changed_since(start) is None
        assert table.changed_since(table.version) == []
        behind = table.version
        for tid in range(100, 100 + CHANGE_LOG_SIZE + 1):
            table.insert(tid, ("filler", None))
        assert table.changed_since(behind) is None
        assert table.changed_since(behind + 1) == list(
            range(100 + CHANGE_LOG_SIZE, 100, -1)
        )

    def test_concurrent_mutations_lose_no_version(self):
        table = ReferenceTable(Database.in_memory(), "r", ["name"])
        log = table._changes
        writers, per_writer = 6, 400
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda w=w: [log.record(w) for _ in range(per_writer)]
                )
                for w in range(writers)
            ]
            for thread in threads:
                thread.start()
            for _ in range(200):  # readers race the writers
                changed = table.changed_since(0)
                assert changed is None or set(changed) <= set(range(writers))
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert table.version == writers * per_writer
        assert sorted(table.changed_since(0)) == sorted(
            w for w in range(writers) for _ in range(per_writer)
        )
