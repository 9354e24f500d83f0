"""Relations, indexes, and the database catalog."""

import pytest

from repro.db.database import Database
from repro.db.errors import (
    DuplicateKeyError,
    RecordNotFoundError,
    RelationError,
    SchemaError,
)
from repro.db.types import Column, ColumnType


@pytest.fixture()
def db():
    database = Database.in_memory()
    yield database
    database.close()


@pytest.fixture()
def people(db):
    rel = db.create_relation(
        "people",
        [
            Column("tid", ColumnType.INT),
            Column("name", ColumnType.STR),
            Column("city", ColumnType.STR, nullable=True),
        ],
    )
    rel.insert((1, "ada", "london"))
    rel.insert((2, "grace", "new york"))
    rel.insert((3, "alan", "london"))
    return rel


class TestRelationBasics:
    def test_insert_and_scan(self, people):
        assert list(people.scan()) == [
            (1, "ada", "london"),
            (2, "grace", "new york"),
            (3, "alan", "london"),
        ]

    def test_len(self, people):
        assert len(people) == 3

    def test_fetch_by_rid(self, people):
        rid = people.insert((4, "edsger", None))
        assert people.fetch(rid) == (4, "edsger", None)

    def test_schema_enforced(self, people):
        with pytest.raises(SchemaError):
            people.insert(("not-an-int", "x", "y"))

    def test_insert_many(self, db):
        rel = db.create_relation("bulk", [Column("v", ColumnType.INT)])
        assert rel.insert_many([(i,) for i in range(100)]) == 100
        assert len(rel) == 100

    def test_delete_removes_from_scan(self, people):
        rid = people.insert((4, "gone", None))
        people.delete(rid)
        assert (4, "gone", None) not in list(people.scan())


class TestIndexes:
    def test_unique_index_lookup(self, people):
        people.create_index("by_tid", ["tid"], unique=True)
        assert people.index_get("by_tid", 2) == (2, "grace", "new york")

    def test_unique_violation(self, people):
        people.create_index("by_tid", ["tid"], unique=True)
        with pytest.raises(DuplicateKeyError):
            people.insert((1, "dup", None))

    def test_non_unique_index(self, people):
        people.create_index("by_city", ["city"])
        rows = people.index_lookup("by_city", "london")
        assert {r[1] for r in rows} == {"ada", "alan"}

    def test_index_on_existing_rows(self, people):
        # create_index was called after inserts in the fixture's siblings;
        # here ensure pre-existing rows are indexed.
        people.create_index("by_name", ["name"], unique=True)
        assert people.index_get("by_name", "ada")[0] == 1

    def test_composite_index(self, db):
        rel = db.create_relation(
            "eti",
            [
                Column("qgram", ColumnType.STR),
                Column("coordinate", ColumnType.INT),
                Column("column", ColumnType.INT),
            ],
        )
        rel.insert(("ing", 2, 1))
        rel.insert(("ing", 1, 1))
        rel.create_index("key", ["qgram", "coordinate", "column"], unique=True)
        assert rel.index_get("key", ("ing", 2, 1)) == ("ing", 2, 1)

    def test_index_get_missing_raises(self, people):
        people.create_index("by_tid", ["tid"], unique=True)
        with pytest.raises(RecordNotFoundError):
            people.index_get("by_tid", 99)

    def test_index_range(self, people):
        people.create_index("by_tid", ["tid"], unique=True)
        rows = list(people.index_range("by_tid", 1, 3))
        assert [key for key, _ in rows] == [1, 2]

    def test_duplicate_index_name_rejected(self, people):
        people.create_index("idx", ["tid"])
        with pytest.raises(RelationError):
            people.create_index("idx", ["name"])

    def test_unknown_index_rejected(self, people):
        with pytest.raises(RelationError):
            people.index_lookup("nope", 1)

    def test_insert_updates_all_indexes(self, people):
        people.create_index("by_tid", ["tid"], unique=True)
        people.create_index("by_name", ["name"])
        people.insert((10, "barbara", "mit"))
        assert people.index_get("by_tid", 10)[1] == "barbara"
        assert people.index_lookup("by_name", "barbara")[0][0] == 10

    def test_delete_updates_indexes(self, people):
        people.create_index("by_tid", ["tid"], unique=True)
        rid = people.insert((10, "temp", None))
        people.delete(rid)
        with pytest.raises(RecordNotFoundError):
            people.index_get("by_tid", 10)

    def test_index_stats(self, people):
        people.create_index("by_tid", ["tid"], unique=True)
        stats = people.index_stats("by_tid")
        assert stats["entries"] == 3
        assert stats["height"] >= 1


class TestBulkPaths:
    """insert_many / create_index build their trees by one sorted bulk load."""

    def indexed(self, db, name="r"):
        rel = db.create_relation(
            name,
            [
                Column("k", ColumnType.INT),
                Column("v", ColumnType.STR),
                Column("tids", ColumnType.INT_LIST, nullable=True),
            ],
        )
        rel.create_index("by_k", ["k"], unique=True)
        rel.create_index("by_v", ["v"])
        return rel

    def test_insert_many_equals_row_by_row(self, db):
        rows = [(k, f"v{k % 7}", [k, k + 1]) for k in (5, 3, 9, 1, 7, 2, 8)]
        bulk, single = self.indexed(db, "bulk"), self.indexed(db, "single")
        assert bulk.insert_many(rows) == len(rows)
        for row in rows:
            single.insert(row)
        assert list(bulk.scan_with_rids()) == list(single.scan_with_rids())
        for index in ("by_k", "by_v"):
            assert list(bulk.index_range(index)) == list(single.index_range(index))
            assert bulk.index_stats(index)["entries"] == len(rows)
        # Duplicate keys of the non-unique index keep storage order.
        assert [row[0] for row in bulk.index_lookup("by_v", "v1")] == [1, 8]

    def test_insert_many_into_a_populated_relation(self, db):
        rel = self.indexed(db)
        rel.insert_many([(1, "a", None), (3, "c", None)])
        rel.insert_many([(2, "b", None), (0, "z", None)])
        assert [key for key, _ in rel.index_range("by_k")] == [0, 1, 2, 3]
        with pytest.raises(DuplicateKeyError):
            rel.insert_many([(4, "d", None), (3, "again", None)])
        # The row before the duplicate is stored and indexed, the
        # duplicate left nothing behind.
        assert len(rel) == 5 == len(list(rel.scan()))
        assert rel.index_get("by_k", 4) == (4, "d", None)
        assert rel.index_get("by_k", 3) == (3, "c", None)

    def test_duplicate_within_one_batch_is_not_written(self, db):
        rel = self.indexed(db)
        with pytest.raises(DuplicateKeyError):
            rel.insert_many([(1, "a", None), (2, "b", None), (1, "dup", None)])
        assert list(rel.scan()) == [(1, "a", None), (2, "b", None)]
        assert [key for key, _ in rel.index_range("by_k")] == [1, 2]

    def test_schema_violation_mid_stream_keeps_earlier_rows_indexed(self, db):
        rel = self.indexed(db)
        with pytest.raises(SchemaError):
            rel.insert_many([(1, "a", None), ("bad", "b", None)])
        assert rel.index_get("by_k", 1) == (1, "a", None)
        assert len(rel) == 1

    def test_create_index_decodes_only_the_key_columns(self, db, monkeypatch):
        rel = self.indexed(db, "wide")
        rel.insert_many([(k, f"v{k}", list(range(50))) for k in range(20)])
        asked = []
        decode = type(rel.schema).decode

        def spying(schema, data, leading=None):
            asked.append(leading)
            return decode(schema, data, leading)

        monkeypatch.setattr(type(rel.schema), "decode", spying)
        rel.create_index("again", ["k"], unique=True)
        assert asked == [1] * 20
        assert rel.index_get("again", 7)[0] == 7

    def test_failed_create_index_is_not_registered(self, db):
        rel = self.indexed(db)
        rel.insert_many([(1, "same", None), (2, "same", None)])
        with pytest.raises(DuplicateKeyError):
            rel.create_index("unique_v", ["v"], unique=True)
        assert "unique_v" not in rel.index_names()

    def test_one_validation_per_stored_row(self, db, monkeypatch):
        rel = self.indexed(db)
        calls = []
        validate = type(rel.schema).validate

        def counting(schema, row):
            calls.append(row)
            return validate(schema, row)

        monkeypatch.setattr(type(rel.schema), "validate", counting)
        rel.insert((1, "a", None))
        rel.insert_many([(2, "b", None), (3, "c", None)])
        assert len(calls) == 3


class TestUpdateRecord:
    """Storing an already-encoded row whose index keys are unchanged."""

    def relation(self, db):
        rel = db.create_relation(
            "r",
            [
                Column("k", ColumnType.INT),
                Column("v", ColumnType.STR),
                Column("tids", ColumnType.INT_LIST, nullable=True),
            ],
        )
        rel.create_index("by_k", ["k"], unique=True)
        rel.create_index("by_v", ["v"])
        return rel

    def test_rewrites_in_place_and_keeps_the_rid(self, db):
        rel = self.relation(db)
        rid = rel.insert((1, "a", [1, 2]))
        record = rel.schema.encode((1, "a", [1, 2, 3]))
        assert rel.update_record(rid, record) == rid
        assert rel.index_get("by_k", 1) == (1, "a", [1, 2, 3])
        assert rel.index_lookup("by_v", "a") == [(1, "a", [1, 2, 3])]

    @pytest.mark.parametrize("row", [(2, "a", [1, 2]), (1, "b", [1, 2]), (1, "ab", [])])
    def test_rejects_a_record_whose_key_bytes_differ(self, db, row):
        rel = self.relation(db)
        rid = rel.insert((1, "a", [1, 2]))
        with pytest.raises(RelationError, match="index key"):
            rel.update_record(rid, rel.schema.encode(row))
        assert rel.fetch(rid) == (1, "a", [1, 2])
        assert rel.find_rid("by_k", 1) == rid

    def test_moves_the_index_entry_when_the_page_cannot_absorb_growth(self, db):
        rel = self.relation(db)
        tids = list(range(0, 1800, 3))
        rids = []
        while rel.num_pages < 2:
            rids.append(rel.insert((len(rids), f"v{len(rids) % 2}", tids)))
        victim = rids[0]
        assert victim.page_index == 0
        grown = (0, "v0", tids + list(range(2000, 2600)))
        moved = rel.update_record(victim, rel.schema.encode(grown))
        assert moved != victim and moved.page_index == 1
        with pytest.raises(RecordNotFoundError):
            rel.fetch(victim)
        assert rel.find_rid("by_k", 0) == moved
        assert rel.index_get("by_k", 0) == grown
        assert sorted(rel.index_lookup("by_v", "v0")) == sorted(
            [grown] + [(k, "v0", tids) for k in range(2, len(rids), 2)]
        )
        assert len(rel) == len(rids)


class TestDatabase:
    def test_create_and_get(self, db):
        db.create_relation("r", [Column("v", ColumnType.INT)])
        assert db.relation("r").name == "r"
        assert "r" in db

    def test_duplicate_name_rejected(self, db):
        db.create_relation("r", [Column("v", ColumnType.INT)])
        with pytest.raises(RelationError):
            db.create_relation("r", [Column("v", ColumnType.INT)])

    def test_unknown_relation_rejected(self, db):
        with pytest.raises(RelationError):
            db.relation("missing")

    def test_drop(self, db):
        db.create_relation("r", [Column("v", ColumnType.INT)])
        db.drop_relation("r")
        assert "r" not in db
        with pytest.raises(RelationError):
            db.drop_relation("r")

    def test_relation_names(self, db):
        db.create_relation("a", [Column("v", ColumnType.INT)])
        db.create_relation("b", [Column("v", ColumnType.INT)])
        assert db.relation_names() == ("a", "b")

    def test_context_manager(self):
        with Database.in_memory() as db:
            db.create_relation("r", [Column("v", ColumnType.INT)])
        assert db.relation_names() == ()

    def test_on_disk_round_trip(self, tmp_path):
        path = str(tmp_path / "wh.db")
        with Database.on_disk(path) as db:
            rel = db.create_relation("r", [Column("v", ColumnType.STR)])
            for i in range(200):
                rel.insert((f"value-{i}",))
            db.pool.flush()
            rows = list(rel.scan())
        assert len(rows) == 200
        assert rows[57] == ("value-57",)
