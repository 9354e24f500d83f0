"""Database snapshot persistence: save, reopen, and reuse a built ETI."""

import json
import struct

import pytest

from repro.core.config import MatchConfig
from repro.core.matcher import FuzzyMatcher
from repro.core.reference import ReferenceTable
from repro.core.weights import build_frequency_cache
from repro.db.database import Database
from repro.db.errors import DatabaseError
from repro.db.fsck import RelationSpace, check_database
from repro.db.snapshot import load_database, save_database
from repro.db.types import Column, ColumnType
from repro.eti.builder import build_eti
from repro.eti.index import EtiIndex

from tests.conftest import ORG_COLUMNS, ORG_ROWS


class TestSnapshotBasics:
    def test_round_trip_rows(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = Database.on_disk(path)
        rel = db.create_relation(
            "t", [Column("k", ColumnType.INT), Column("v", ColumnType.STR)]
        )
        for i in range(500):
            rel.insert((i, f"value-{i}"))
        save_database(db)
        db.close()

        reopened = load_database(path)
        rows = list(reopened.relation("t").scan())
        assert len(rows) == 500
        assert rows[123] == (123, "value-123")
        reopened.close()

    def test_indexes_restored(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = Database.on_disk(path)
        rel = db.create_relation(
            "t", [Column("k", ColumnType.INT), Column("v", ColumnType.STR)]
        )
        rel.create_index("by_k", ["k"], unique=True)
        for i in range(100):
            rel.insert((i, str(i)))
        save_database(db)
        db.close()

        reopened = load_database(path)
        restored = reopened.relation("t")
        assert "by_k" in restored.index_names()
        assert restored.index_get("by_k", 42) == (42, "42")
        reopened.close()

    def test_in_memory_rejected(self):
        db = Database.in_memory()
        with pytest.raises(DatabaseError, match="in-memory"):
            save_database(db)

    def test_missing_metadata_rejected(self, tmp_path):
        path = str(tmp_path / "nothing.pages")
        db = Database.on_disk(path)
        db.close()
        with pytest.raises(DatabaseError, match="no snapshot metadata"):
            load_database(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_a_version_before_delta_coded_tid_lists_is_refused(self, tmp_path, version):
        # Versions 1-3 store varint tid-lists, which version 4 cannot read.
        path = str(tmp_path / "db.pages")
        db = Database.on_disk(path)
        db.create_relation("t", [Column("k", ColumnType.INT)]).insert((1,))
        meta_path = save_database(db)
        db.close()
        with open(meta_path) as handle:
            meta = json.load(handle)
        assert meta["version"] == 4
        meta["version"] = version
        if version < 3:
            del meta["generation"]
        if version < 2:
            del meta["page_checksums"]
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        with pytest.raises(DatabaseError, match=f"version {version} .*rebuild"):
            load_database(path)

    @pytest.mark.parametrize("missing", ["generation", "page_checksums"])
    def test_version_4_metadata_must_be_complete(self, tmp_path, missing):
        path = str(tmp_path / "db.pages")
        db = Database.on_disk(path)
        db.create_relation("t", [Column("k", ColumnType.INT)]).insert((1,))
        meta_path = save_database(db)
        db.close()
        with open(meta_path) as handle:
            meta = json.load(handle)
        del meta[missing]
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        with pytest.raises(DatabaseError, match=missing):
            load_database(path)

    def test_writes_after_reopen(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = Database.on_disk(path)
        rel = db.create_relation("t", [Column("k", ColumnType.INT)])
        rel.insert((1,))
        save_database(db)
        db.close()

        reopened = load_database(path)
        reopened.relation("t").insert((2,))
        assert sorted(reopened.relation("t").scan()) == [(1,), (2,)]
        reopened.close()


class TestAtomicMetaWrite:
    def test_crash_mid_meta_write_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        """Dying inside the metadata dump must not destroy the old snapshot.

        Regression: save_database used to rewrite the metadata file in
        place, so a crash mid-``json.dump`` left a torn, unloadable file.
        The temp-file + ``os.replace`` protocol keeps the previous
        complete snapshot visible until the new one is fully on disk.
        """
        import json as json_module

        path = str(tmp_path / "db.pages")
        db = Database.on_disk(path)
        rel = db.create_relation("t", [Column("k", ColumnType.INT)])
        rel.insert((1,))
        save_database(db)

        # Second snapshot attempt dies mid-dump, after bytes have been
        # emitted (a partial JSON document reaches the temp file).
        with db.transaction():
            rel.insert((2,))
        real_dump = json_module.dump

        def dying_dump(obj, handle, **kwargs):
            handle.write('{"version": 4, "torn": ')
            raise OSError("simulated crash during metadata write")

        monkeypatch.setattr("repro.db.snapshot.json.dump", dying_dump)
        with pytest.raises(OSError, match="simulated crash"):
            save_database(db)
        monkeypatch.setattr("repro.db.snapshot.json.dump", real_dump)
        db.pool.storage.close()

        # The original metadata still parses, and the committed-but-not-
        # checkpointed row is recovered from the log.
        reopened = load_database(path)
        assert sorted(reopened.relation("t").scan()) == [(1,), (2,)]
        reopened.close()

    def test_failed_meta_write_leaves_wal_intact(self, tmp_path, monkeypatch):
        """The log must not be reset when the checkpoint never completed."""
        path = str(tmp_path / "db.pages")
        db = Database.on_disk(path)
        rel = db.create_relation("t", [Column("k", ColumnType.INT)])
        with db.transaction():
            rel.insert((1,))
        generation_before = db.wal.generation

        def dying_dump(obj, handle, **kwargs):
            raise OSError("simulated crash during metadata write")

        monkeypatch.setattr("repro.db.snapshot.json.dump", dying_dump)
        with pytest.raises(OSError, match="simulated crash"):
            save_database(db)
        assert db.wal.generation == generation_before  # reset never ran


class TestNoWalOpenSafety:
    def test_no_wal_open_refuses_live_committed_tail(self, tmp_path):
        """``wal=False`` must not silently serve stale pre-tail state.

        Regression: opening without WAL recovery while the log held
        committed-but-uncheckpointed transactions served the old snapshot
        (its checksums verify fine), and a later save_database on that
        handle deleted the log — making the loss permanent and silent.
        """
        path = str(tmp_path / "db.pages")
        db = Database.on_disk(path)
        rel = db.create_relation("t", [Column("k", ColumnType.INT)])
        rel.insert((1,))
        save_database(db)
        db.close()

        reopened = load_database(path)
        with reopened.transaction():
            reopened.relation("t").insert((2,))
        reopened.pool.storage.close()  # die with a committed, live tail

        with pytest.raises(DatabaseError, match="wal=False"):
            load_database(path, wal=False)

        # WAL recovery replays the tail; once checkpointed, the no-WAL
        # engine opens the complete state.
        recovered = load_database(path)
        assert sorted(recovered.relation("t").scan()) == [(1,), (2,)]
        save_database(recovered)
        recovered.close()
        plain = load_database(path, wal=False)
        assert sorted(plain.relation("t").scan()) == [(1,), (2,)]
        plain.close()


class TestEtiReuse:
    def test_persisted_eti_answers_queries(self, tmp_path):
        """§6.2.2.1: the persisted ETI serves subsequent input batches."""
        path = str(tmp_path / "warehouse.pages")
        config = MatchConfig(q=3, signature_size=2)

        db = Database.on_disk(path)
        reference = ReferenceTable(db, "orgs", list(ORG_COLUMNS))
        reference.load(ORG_ROWS)
        build_eti(db, reference, config)
        save_database(db)
        db.close()

        reopened = load_database(path)
        restored_reference = ReferenceTable.attach(reopened, "orgs", list(ORG_COLUMNS))
        weights = build_frequency_cache(
            restored_reference.scan_values(), restored_reference.num_columns
        )
        eti = EtiIndex(reopened.relation("eti"))
        matcher = FuzzyMatcher(restored_reference, weights, config, eti)
        result = matcher.match(("Beoing Company", "Seattle", "WA", "98004"))
        assert result.best is not None
        assert result.best.tid == 1
        reopened.close()


class TestFsckPageLayout:
    @staticmethod
    def _warehouse(tmp_path):
        path = str(tmp_path / "db.pages")
        db = Database.on_disk(path)
        rel = db.create_relation(
            "t", [Column("k", ColumnType.INT), Column("v", ColumnType.STR)]
        )
        rids = [rel.insert((i, f"value-{i:04d}" * 4)) for i in range(400)]
        return path, db, rel, rids

    def test_reports_pages_and_dead_bytes_per_relation(self, tmp_path):
        path, db, rel, rids = self._warehouse(tmp_path)
        for rid in rids[:10]:
            rel.delete(rid)
        dead = rel.heap.dead_bytes
        assert dead > 0
        save_database(db)
        db.close()
        report = check_database(path)
        assert report.exit_code == 0, report.lines()
        assert report.relations == {"t": RelationSpace(rel.num_pages, dead)}
        assert f"relation t: {rel.num_pages} pages, {dead} dead bytes" in report.lines()

    def test_a_checksummed_page_with_overlapping_records_is_an_error(self, tmp_path):
        path, db, rel, rids = self._warehouse(tmp_path)
        page = db.pool.get_page(rel.heap._resolve(rids[0]))
        offset, length = struct.unpack_from("<HH", page.data, 4 + 4 * 1)
        struct.pack_into("<HH", page.data, 4 + 4 * 1, offset, length + 10)
        page.dirty = True
        save_database(db)  # the snapshot's checksum vouches for the bad layout
        db.close()
        report = check_database(path)
        assert report.exit_code == 2
        assert any(
            "structurally unsound" in error and "overlaps slot 0" in error
            for error in report.errors
        ), report.errors
