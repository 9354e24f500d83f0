"""Failure injection and degraded-mode behaviour.

A production-quality system fails loudly on corruption and degrades
gracefully on misconfiguration; these tests pin down which is which.
"""

import os

import pytest

from repro.core.config import MatchConfig
from repro.core.matcher import FuzzyMatcher
from repro.core.minhash import MinHasher
from repro.core.reference import ReferenceTable
from repro.core.weights import BoundedTokenFrequencyCache, build_frequency_cache
from repro.db.database import Database
from repro.db.errors import BufferPoolError, SchemaError
from repro.db.pager import BufferPool
from repro.db.snapshot import load_database, save_database
from repro.db.types import Column, ColumnType, Schema
from repro.eti.builder import build_eti

from tests.conftest import ORG_COLUMNS, ORG_ROWS


class TestStorageCorruption:
    def test_truncated_page_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.pages"
        # wal=False so pages land in the page file itself (with a log they
        # stay in the tail until a checkpoint and the file would be empty).
        db = Database.on_disk(str(path), wal=False)
        rel = db.create_relation("t", [Column("v", ColumnType.INT)])
        rel.insert((1,))
        db.close()
        # Chop the file mid-page.
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 100)
        with pytest.raises(BufferPoolError, match="aligned"):
            Database.on_disk(str(path), wal=False)

    def test_corrupt_record_bytes_fail_decode(self):
        schema = Schema([Column("s", ColumnType.STR)])
        encoded = bytearray(schema.encode(("hello world",)))
        encoded[0] = 0xFF  # break the length prefix
        with pytest.raises(SchemaError):
            schema.decode(bytes(encoded))

    def test_snapshot_with_tampered_metadata(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = Database.on_disk(path)
        db.create_relation("t", [Column("v", ColumnType.INT)])
        meta_path = save_database(db)
        db.close()
        with open(meta_path, "w") as handle:
            handle.write('{"version": 99}')
        from repro.db.errors import DatabaseError

        with pytest.raises(DatabaseError, match="version"):
            load_database(path)

    def test_tiny_buffer_pool_still_correct(self):
        """Thrash-heavy eviction must never lose data."""
        pool = BufferPool(capacity=2)
        db = Database(pool)
        rel = db.create_relation(
            "t", [Column("k", ColumnType.INT), Column("v", ColumnType.STR)]
        )
        for i in range(2000):
            rel.insert((i, f"value-{i}" * 3))
        assert pool.stats.evictions > 0
        rows = list(rel.scan())
        assert len(rows) == 2000
        assert rows[1234] == (1234, "value-1234" * 3)


class TestDegradedMatching:
    @pytest.fixture()
    def warehouse(self):
        db = Database.in_memory()
        reference = ReferenceTable(db, "orgs", list(ORG_COLUMNS))
        reference.load(ORG_ROWS)
        weights = build_frequency_cache(reference.scan_values(), 4)
        return db, reference, weights

    def test_mismatched_hasher_seed_degrades_not_crashes(self, warehouse):
        """An ETI built with one min-hash seed, queried with another: the
        q-gram coordinates disagree, recall drops, but token coordinates
        (Q+T) still work and nothing crashes."""
        db, reference, weights = warehouse
        config = MatchConfig(q=3, signature_size=2)
        eti, _ = build_eti(db, reference, config, hasher=MinHasher(3, 2, seed=1))
        matcher = FuzzyMatcher(
            reference, weights, config, eti, hasher=MinHasher(3, 2, seed=2)
        )
        result = matcher.match(("Boeing Company", "Seattle", "WA", "98004"))
        # The exact-token coordinates still identify the tuple.
        assert result.best is not None
        assert result.best.tid == 1

    def test_k_larger_than_relation(self, warehouse):
        db, reference, weights = warehouse
        config = MatchConfig(q=3, signature_size=2)
        eti, _ = build_eti(db, reference, config)
        matcher = FuzzyMatcher(reference, weights, config, eti)
        result = matcher.match(
            ("Boeing Company", "Seattle", "WA", "98004"), k=50, strategy="naive"
        )
        assert len(result.matches) == 3

    def test_extreme_stop_threshold_still_answers(self, warehouse):
        """stop_qgram_threshold=1 nulls every shared q-gram; unique ones
        still route candidates."""
        db, reference, weights = warehouse
        config = MatchConfig(q=3, signature_size=2, stop_qgram_threshold=1)
        eti, build_stats = build_eti(db, reference, config)
        assert build_stats.stop_qgrams > 0
        matcher = FuzzyMatcher(reference, weights, config, eti)
        result = matcher.match(("Boeing Company", "Seattle", "WA", "98004"))
        assert result.best is not None

    def test_bounded_cache_collisions_end_to_end(self, warehouse):
        """A 4-bucket frequency cache garbles weights yet matching still
        returns a ranked result (the §4.4.1 accuracy trade, not a crash)."""
        db, reference, _ = warehouse
        bounded = BoundedTokenFrequencyCache(3, 4, max_entries=4)
        build_frequency_cache(reference.scan_values(), 4, cache=bounded)
        config = MatchConfig(q=3, signature_size=2)
        eti, _ = build_eti(db, reference, config, eti_name="eti_bounded")
        matcher = FuzzyMatcher(reference, bounded, config, eti)
        result = matcher.match(("Boeing Company", "Seattle", "WA", "98004"))
        # Collisions can flatten every weight to zero (tiny corpus, 4
        # buckets), in which case no match is returnable; when matches do
        # come back their scores must be sane.
        for match in result.matches:
            assert 0.0 <= match.similarity <= 1.0

    def test_input_with_unknown_alphabet(self, warehouse):
        db, reference, weights = warehouse
        config = MatchConfig(q=3, signature_size=2)
        eti, _ = build_eti(db, reference, config)
        matcher = FuzzyMatcher(reference, weights, config, eti)
        result = matcher.match(("北京公司", "西雅图", "华", "98004"))
        for match in result.matches:
            assert 0.0 <= match.similarity <= 1.0

    def test_very_long_token(self, warehouse):
        db, reference, weights = warehouse
        config = MatchConfig(q=3, signature_size=2)
        eti, _ = build_eti(db, reference, config)
        matcher = FuzzyMatcher(reference, weights, config, eti)
        monster = "x" * 5000
        result = matcher.match((monster, "Seattle", "WA", "98004"))
        assert result.stats.eti_lookups > 0

    def test_eti_for_wrong_relation_returns_garbage_not_crash(self, warehouse):
        """Querying through an ETI built over different data degrades to
        empty/poor candidates; the contract is 'no crash, valid scores'."""
        db, reference, weights = warehouse
        other = ReferenceTable(db, "other", list(ORG_COLUMNS))
        other.load([(7, ("Zenith Labs", "Reno", "NV", "89501"))])
        config = MatchConfig(q=3, signature_size=2)
        eti, _ = build_eti(db, other, config, eti_name="eti_other")
        matcher = FuzzyMatcher(reference, weights, config, eti)
        result = matcher.match(("Zenith Labs", "Reno", "NV", "89501"))
        for match in result.matches:
            assert 0.0 <= match.similarity <= 1.0
