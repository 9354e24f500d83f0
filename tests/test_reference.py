"""ReferenceTable: tid-indexed access, mutation, the resident store."""

import os
import random
import sys
import threading

import pytest

from repro.core.config import MatchConfig
from repro.core.matcher import FuzzyMatcher
from repro.core.reference import ReferenceTable
from repro.core.tokens import tokenize
from repro.core.weights import build_frequency_cache
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.db.errors import DuplicateKeyError, RecordNotFoundError
from repro.db.snapshot import load_database, save_database
from repro.eti.builder import build_eti
from repro.eti.maintenance import EtiMaintainer


def resident(table):
    """Every row of ``table``'s resident store as attribute values, by tid.

    Builds the store first when it is absent, and checks each interned
    value's tokens against a fresh tokenization of its raw string.
    """
    table.row(-1)
    rows = {}
    for tid, row in table._store.items():
        assert [value.tokens for value in row] == [
            tuple(tokenize(value.raw)) for value in row
        ]
        rows[tid] = tuple(value.raw for value in row)
    return rows


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
        """A query counts its own reads: every candidate it verifies is one
        read from the resident store, and none goes through the tid index."""
        db = Database.in_memory()
        table = ReferenceTable(db, "r", ["name", "city"])
        table.load([(1, ("alpha one", "springfield")), (2, ("alpha two", "springfield"))])
        config = MatchConfig(q=3, signature_size=2)
        eti, _ = build_eti(db, table, config)
        weights = build_frequency_cache(table.scan_values(), table.num_columns)
        matcher = FuzzyMatcher(table, weights, config, eti)
        fetched = []
        fetch = table.fetch
        table.fetch = lambda tid: fetched.append(tid) or fetch(tid)
        stats = matcher.match(("alpha one", "springfield"), k=2, strategy="basic").stats
        assert stats.reference_cache_hits == stats.candidates_fetched == 2
        assert stats.reference_cache_misses == 0
        assert fetched == []


class TestMutation:
    def test_insert(self, table):
        table.insert(9, ("delta four", "ogdenville"))
        assert table.fetch(9) == ("delta four", "ogdenville")

    def test_duplicate_tid_rejected(self, table):
        with pytest.raises(DuplicateKeyError):
            table.insert(1, ("dup", "x"))

    def test_load_rejects_a_duplicate_tid_before_writing_it(self, table):
        before = list(table.scan())
        with pytest.raises(DuplicateKeyError):
            table.load([(7, ("new seven", "x")), (1, ("dup", "x")), (8, ("late", "x"))])
        # Row 7 came before the duplicate and is stored and indexed; the
        # duplicate and everything after it left nothing in heap or index.
        assert list(table.scan()) == before + [(7, ("new seven", "x"))]
        assert table.fetch(7) == ("new seven", "x")
        assert table.fetch(1) == before[0][1]
        assert 8 not in table
        assert resident(table) == dict(table.scan())

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


class TestResidentStore:
    def test_built_on_the_first_read_not_on_attach_or_load(self):
        db = Database.in_memory()
        table = ReferenceTable(db, "r", ["name", "city"])
        table.load([(1, ("alpha one", "springfield")), (2, ("beta two", None))])
        assert table._store is None
        assert ReferenceTable.attach(db, "r", ["name", "city"])._store is None
        assert table.row(2)[0].raw == "beta two"
        assert table._store is not None
        table.load([(10, ("epsilon", None))])
        assert table._store is None  # a bulk load drops it
        assert table.row(10)[0].tokens == ("epsilon",)
        assert table.row(99) is None

    def test_values_are_interned_per_column(self, table):
        table.insert(9, ("springfield", "springfield"))
        name, city = table.row(9)
        assert city is table.row(1)[1]  # one object per (column, raw value)
        assert name is not city  # the same string in another column
        assert name.tokens[0] is city.tokens[0]  # token strings are shared
        assert table.row(5)[1].raw is None and table.row(5)[1].tokens == ()

    def test_writes_keep_the_store_equal_to_a_scan(self, table):
        table.row(1)
        table.insert(9, ("delta four", "ogdenville"))
        table.delete(2)
        table.delete(9)
        table.insert(2, ("beta again", None))
        assert resident(table) == dict(table.scan())

    def test_store_equals_a_scan_after_maintenance_and_reopen(
        self, tmp_path
    ):
        path = os.path.join(tmp_path, "w.pages")
        config = MatchConfig(q=3, signature_size=2)
        db = Database.on_disk(path, wal=True)
        table = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
        customers = generate_customers(160, seed=31, unique=True)
        table.load((c.tid, c.values) for c in customers[:120])
        eti, _ = build_eti(db, table, config)
        weights = build_frequency_cache(table.scan_values(), table.num_columns)
        maintainer = EtiMaintainer(table, eti, config, weights=weights, database=db)
        table.row(0)  # the store is live before the burst
        rng = random.Random(7)
        fresh = iter(c.values for c in customers[120:])
        live = {c.tid: c.values for c in customers[:120]}
        for step in range(60):
            tid = rng.choice(sorted(live))
            kind = ("insert", "delete", "update")[step % 3]
            if kind == "delete":
                maintainer.delete_tuple(tid)
                del live[tid]
            elif kind == "update":
                live[tid] = next(fresh)
                maintainer.update_tuple(tid, live[tid])
            else:
                new_tid = max(live) + 1
                live[new_tid] = next(fresh)
                maintainer.insert_tuple(new_tid, live[new_tid])
        assert resident(table) == dict(table.scan()) == live
        save_database(db, path)
        db.close()

        reopened = load_database(path, wal=True)
        try:
            table = ReferenceTable.attach(reopened, "reference", list(CUSTOMER_COLUMNS))
            assert table._store is None
            assert resident(table) == dict(table.scan()) == live
        finally:
            reopened.close()

    def test_concurrent_writers_keep_the_store_exact(self):
        """Writer threads (serialized, as the relation requires) race the
        store's lazy build and lock-free readers; afterwards the store
        equals the relation row for row."""
        table = ReferenceTable(Database.in_memory(), "r", ["name"])
        table.load((tid, (f"seed {tid}",)) for tid in range(40))
        writers, per_writer = 4, 60
        serialized = threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def write(w):
            for i in range(per_writer):
                tid = 1000 * (w + 1) + i
                with serialized:
                    table.insert(tid, (f"writer {w} row {i}",))
                if i % 3 == 0:
                    with serialized:
                        table.delete(tid)

        try:
            threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
            for thread in threads:
                thread.start()
            with serialized:
                table.row(0)  # the lazy build scans between two writes
            for _ in range(200):
                row = table.row(1000)
                assert row is None or row[0].raw == "writer 0 row 0"
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert resident(table) == dict(table.scan())
        assert len(table) == 40 + writers * (per_writer - per_writer // 3)

    def test_a_reader_racing_a_writer_sees_only_held_rows(self):
        """Readers take no lock: a row read mid-update is the old or the new
        one, never a mix, and answers afterwards equal a cold matcher's.

        The writer replaces reference tuples only (the ETI stays as built,
        as between the two halves of a maintained update), while readers
        read rows and run queries on one shared matcher.
        """
        db = Database.in_memory()
        table = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
        customers = generate_customers(150, seed=11, unique=True)
        table.load((c.tid, c.values) for c in customers)
        config = MatchConfig(q=4, signature_size=2)
        eti, _ = build_eti(db, table, config)
        weights = build_frequency_cache(table.scan_values(), table.num_columns)
        matcher = FuzzyMatcher(table, weights, config, eti)
        original = {c.tid: tuple(c.values) for c in customers[:10]}
        targets = list(original)
        renamed = {
            tid: [(f"renamed {tid} v{i}",) + values[1:] for i in range(6)]
            for tid, values in original.items()
        }
        held = {tid: {original[tid], *renamed[tid]} for tid in targets}
        done = threading.Event()
        seen = []

        def read():
            while not done.is_set():
                for tid in targets:
                    row = table.row(tid)
                    if row is not None:
                        seen.append((tid, tuple(value.raw for value in row)))
                matcher.match(customers[0].values, k=2)

        readers = [threading.Thread(target=read) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for i in range(6):
                for tid in targets:
                    table.delete(tid)
                    table.insert(tid, renamed[tid][i])
            done.set()
            for reader in readers:
                reader.join(timeout=30)
                assert not reader.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert seen
        assert all(values in held[tid] for tid, values in seen)
        assert resident(table) == dict(table.scan())
        cold = FuzzyMatcher(table, weights, config, eti)
        for values in [c.values for c in customers[:20]] + [renamed[t][-1] for t in targets]:
            for strategy in ("basic", "osc"):
                got = matcher.match(values, k=2, strategy=strategy).matches
                assert got == cold.match(values, k=2, strategy=strategy).matches
        db.close()
