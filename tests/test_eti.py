"""ETI construction and lookup (§4.2, §5.1)."""

import hashlib
import inspect
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.core.config import MatchConfig, SignatureScheme
from repro.core.matcher import FuzzyMatcher
from repro.core.minhash import MinHasher
from repro.core.reference import ReferenceTable
from repro.core.tokens import TupleTokens
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.btree import BPlusTree
from repro.db.database import Database
from repro.db.errors import DatabaseError, PageFullError, RecordNotFoundError, RelationError
from repro.db.page import MAX_RECORD_SIZE
from repro.db.snapshot import save_database
from repro.db.types import Schema
from repro.eti.builder import EtiBuilder, TidListTooLargeError, build_eti
from repro.obs.tracing import Tracer
from repro.eti.schema import ETI_INDEX, eti_columns
from repro.eti.signature import TOKEN_COORDINATE, SignatureEntry, signature_entries

REPO = Path(__file__).resolve().parent.parent

@pytest.fixture()
def sort_tmp(tmp_path, monkeypatch):
    """Sort runs spill into a private directory the test can list."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return str(tmp_path)


class TestSignatureEntries:
    def setup_method(self):
        self.hasher = MinHasher(q=3, num_hashes=2, seed=1)

    def test_q_scheme_long_token(self):
        config = MatchConfig(q=3, signature_size=2, scheme=SignatureScheme.QGRAMS)
        entries = signature_entries("corporation", self.hasher, config)
        assert len(entries) == 2
        assert [e.coordinate for e in entries] == [1, 2]
        assert all(e.weight_fraction == pytest.approx(0.5) for e in entries)

    def test_q_scheme_short_token(self):
        config = MatchConfig(q=3, signature_size=2, scheme=SignatureScheme.QGRAMS)
        entries = signature_entries("wa", self.hasher, config)
        assert entries == (SignatureEntry(1, "wa", 1.0),)

    def test_qt_scheme_adds_token_coordinate(self):
        config = MatchConfig(
            q=3, signature_size=2, scheme=SignatureScheme.QGRAMS_PLUS_TOKEN
        )
        entries = signature_entries("corporation", self.hasher, config)
        assert entries[0].coordinate == TOKEN_COORDINATE
        assert entries[0].gram == "corporation"
        assert entries[0].weight_fraction == pytest.approx(0.5)
        assert [e.coordinate for e in entries[1:]] == [1, 2]
        assert all(e.weight_fraction == pytest.approx(0.25) for e in entries[1:])

    def test_qt_zero_is_token_only(self):
        config = MatchConfig(
            q=3, signature_size=0, scheme=SignatureScheme.QGRAMS_PLUS_TOKEN
        )
        entries = signature_entries("corporation", self.hasher, config)
        assert entries == (SignatureEntry(TOKEN_COORDINATE, "corporation", 1.0),)

    def test_weight_fractions_sum_to_one(self):
        for scheme in SignatureScheme:
            for size in (1, 2, 3):
                config = MatchConfig(q=3, signature_size=size, scheme=scheme)
                for token in ("corporation", "wa", "boeing"):
                    entries = signature_entries(token, self.hasher, config)
                    assert sum(e.weight_fraction for e in entries) == pytest.approx(1.0)

    def test_empty_token(self):
        config = MatchConfig(q=3, signature_size=2)
        assert signature_entries("", self.hasher, config) == ()

    def test_grams_come_from_minhash(self):
        config = MatchConfig(q=3, signature_size=2, scheme=SignatureScheme.QGRAMS)
        entries = signature_entries("corporation", self.hasher, config)
        assert tuple(e.gram for e in entries) == self.hasher.signature("corporation")

    def test_full_scheme_indexes_every_qgram(self):
        config = MatchConfig(q=3, scheme=SignatureScheme.FULL_QGRAMS)
        entries = signature_entries("boeing", self.hasher, config)
        assert {e.gram for e in entries} == {"boe", "oei", "ein", "ing"}
        assert all(e.coordinate == 1 for e in entries)
        assert sum(e.weight_fraction for e in entries) == pytest.approx(1.0)

    def test_full_scheme_short_token(self):
        config = MatchConfig(q=3, scheme=SignatureScheme.FULL_QGRAMS)
        entries = signature_entries("wa", self.hasher, config)
        assert entries == (SignatureEntry(1, "wa", 1.0),)

    def test_full_scheme_label(self):
        config = MatchConfig(q=3, scheme=SignatureScheme.FULL_QGRAMS)
        assert config.strategy_label == "Full"


class TestEtiBuild:
    def test_builds_and_counts(self, org_db, org_reference, paper_config):
        eti, stats = build_eti(org_db, org_reference, paper_config)
        assert stats.reference_tuples == 3
        assert stats.eti_rows == len(eti)
        assert stats.eti_rows > 0
        assert stats.pre_eti_rows >= stats.eti_rows

    def test_every_reference_token_is_indexed(
        self, org_db, org_reference, paper_config
    ):
        """Completeness: every signature coordinate of every reference tuple
        must carry that tuple's tid in its ETI tid-list."""
        hasher = MinHasher(
            paper_config.q, paper_config.signature_size, paper_config.seed
        )
        eti, _ = build_eti(org_db, org_reference, paper_config, hasher=hasher)
        for tid, values in org_reference.scan():
            tokens = TupleTokens.from_values(values)
            for column in range(tokens.num_columns):
                for token in tokens.column_tokens(column):
                    for entry in signature_entries(token, hasher, paper_config):
                        record = eti.lookup(entry.gram, entry.coordinate, column)
                        assert record is not None
                        assert tid in record.tid_list

    def test_frequencies_count_tid_list(self, org_db, org_reference, paper_config):
        eti, _ = build_eti(org_db, org_reference, paper_config)
        for row in eti.relation.scan():
            qgram, coordinate, column, frequency, tid_list = row
            assert frequency == len(tid_list)

    def test_shared_tokens_share_tid_lists(self, org_db, org_reference, paper_config):
        """'seattle' appears in all three tuples: its q-grams list all tids."""
        hasher = MinHasher(
            paper_config.q, paper_config.signature_size, paper_config.seed
        )
        eti, _ = build_eti(org_db, org_reference, paper_config, hasher=hasher)
        for entry in signature_entries("seattle", hasher, paper_config):
            record = eti.lookup(entry.gram, entry.coordinate, 1)
            assert sorted(record.tid_list) == [1, 2, 3]

    def test_stop_qgrams_get_null_tid_lists(self, org_db, org_reference):
        config = MatchConfig(
            q=3,
            signature_size=2,
            scheme=SignatureScheme.QGRAMS,
            stop_qgram_threshold=2,
        )
        eti, stats = build_eti(org_db, org_reference, config)
        assert stats.stop_qgrams > 0
        # 'sea'/'ttl' style grams appear in 3 tuples > threshold 2.
        null_rows = [
            row for row in eti.relation.scan() if row[4] is None
        ]
        assert len(null_rows) == stats.stop_qgrams
        for row in null_rows:
            assert row[3] > 2  # frequency preserved even when list is NULL

    def test_build_leaves_only_reference_and_eti(
        self, org_db, org_reference, paper_config, sort_tmp
    ):
        builder = EtiBuilder(org_db, paper_config, sort_memory_limit=4)
        _, stats = builder.build(org_reference)
        assert stats.sort.runs >= 3  # the runs really were spilled
        assert org_db.relation_names() == ("orgs", "eti")
        assert os.listdir(sort_tmp) == []

    def test_build_that_raises_mid_scan_leaves_nothing_behind(
        self, org_db, org_reference, paper_config, sort_tmp, monkeypatch
    ):
        scan = org_reference.scan

        def broken_scan():
            for count, pair in enumerate(scan()):
                if count == 2:
                    raise RuntimeError("reference went away")
                yield pair

        monkeypatch.setattr(org_reference, "scan", broken_scan)
        builder = EtiBuilder(org_db, paper_config, sort_memory_limit=4)
        with pytest.raises(RuntimeError, match="went away"):
            builder.build(org_reference)
        assert org_db.relation_names() == ("orgs",)
        assert os.listdir(sort_tmp) == []
        monkeypatch.undo()
        eti, _ = build_eti(org_db, org_reference, paper_config)  # retry works
        assert len(eti) > 0

    def test_build_that_raises_mid_merge_leaves_nothing_behind(
        self, org_db, org_reference, paper_config, sort_tmp, monkeypatch
    ):
        from repro.db.heap import HeapFile

        insert = HeapFile.insert
        stored = []

        def failing_insert(heap, record):
            if len(stored) == 5:
                raise RecordNotFoundError("storage gave out")
            stored.append(record)
            return insert(heap, record)

        builder = EtiBuilder(org_db, paper_config, sort_memory_limit=4)
        monkeypatch.setattr(HeapFile, "insert", failing_insert)
        with pytest.raises(RecordNotFoundError, match="gave out"):
            builder.build(org_reference)
        assert org_db.relation_names() == ("orgs",)
        assert os.listdir(sort_tmp) == []  # the unmerged runs are gone too

    def test_existing_relation_survives_a_name_clash(
        self, org_db, org_reference, paper_config
    ):
        eti, _ = build_eti(org_db, org_reference, paper_config)
        with pytest.raises(RelationError):
            build_eti(org_db, org_reference, paper_config)
        assert org_db.relation("eti") is eti.relation

    def test_sort_memory_limit_below_two_is_rejected(self, org_db, paper_config):
        with pytest.raises(ValueError, match="sort_memory_limit"):
            EtiBuilder(org_db, paper_config, sort_memory_limit=1)

    def test_no_pre_eti_knobs(self):
        import repro.eti

        assert not [name for name in dir(repro.eti) if name.startswith("pre_eti")]
        assert list(inspect.signature(EtiBuilder.build).parameters) == [
            "self",
            "reference",
            "eti_name",
        ]

    def test_build_phases_show_in_a_trace(self, org_db, org_reference, paper_config):
        tracer = Tracer()
        with tracer.trace("build") as root:
            _, stats = build_eti(org_db, org_reference, paper_config)
        runs, write = root.children
        assert (runs.name, write.name) == ("eti.builder.runs", "eti.builder.write")
        assert runs.annotations["pre_eti_rows"] == stats.pre_eti_rows
        assert runs.annotations["runs"] == stats.sort.runs == 1
        assert write.annotations["eti_rows"] == stats.eti_rows
        assert runs.end_s <= write.start_s
        assert stats.runs_seconds > 0 and stats.write_seconds > 0
        assert stats.runs_seconds + stats.write_seconds == pytest.approx(
            stats.elapsed_seconds
        )

    def test_qt_scheme_indexes_whole_tokens(self, org_db, org_reference):
        config = MatchConfig(
            q=3, signature_size=2, scheme=SignatureScheme.QGRAMS_PLUS_TOKEN
        )
        eti, _ = build_eti(org_db, org_reference, config)
        record = eti.lookup("boeing", TOKEN_COORDINATE, 0)
        assert record is not None
        assert record.tid_list == [1]

    def test_tid_entries_accounting(self, org_db, org_reference, paper_config):
        eti, stats = build_eti(org_db, org_reference, paper_config)
        postings = sum(
            len(row[4]) for row in eti.relation.scan() if row[4] is not None
        )
        assert stats.tid_entries == postings

    def test_tid_lists_deduplicated(self, org_db):
        """A tuple whose same-column tokens share an indexed gram appears
        once in that gram's tid-list."""
        reference = ReferenceTable(org_db, "sharing", ["name"])
        # Tokens 'abcd' and 'abcde' both contribute 4-gram 'abcd' at
        # coordinate 1 under the FULL scheme.
        reference.load([(1, ("abcd abcde",))])
        config = MatchConfig(q=4, scheme=SignatureScheme.FULL_QGRAMS)
        eti, _ = build_eti(org_db, reference, config, eti_name="eti_sharing")
        record = eti.lookup("abcd", 1, 0)
        assert record is not None
        assert record.tid_list == [1]
        assert record.frequency == 1

    def test_external_sort_path(self, org_db, org_reference, paper_config):
        """A tiny sort memory limit forces spill runs; result unchanged."""
        baseline, _ = build_eti(org_db, org_reference, paper_config, eti_name="eti_a")
        builder = EtiBuilder(org_db, paper_config, sort_memory_limit=2)
        spilled, stats = builder.build(org_reference, eti_name="eti_b")
        assert stats.sort.runs > 1
        assert list(baseline.relation.scan()) == list(spilled.relation.scan())


def eti_oracle(reference, hasher, config):
    """The ETI as a dict built straight from signature_entries (no sort)."""
    postings: dict[tuple[str, int, int], set[int]] = {}
    for tid, values in reference.scan():
        tokens = TupleTokens.from_values(values)
        for column in range(tokens.num_columns):
            for token in tokens.column_tokens(column):
                for entry in signature_entries(token, hasher, config):
                    key = (entry.gram, entry.coordinate, column)
                    postings.setdefault(key, set()).add(tid)
    rows = []
    for key in sorted(postings):
        tids = sorted(postings[key])
        stored = tids if len(tids) <= config.stop_qgram_threshold else None
        rows.append((*key, len(tids), stored))
    return rows


def oracle_counters(reference, hasher, config):
    """The ``BuildStats`` counters of the per-posting pre-ETI and its oracle."""
    rows = eti_oracle(reference, hasher, config)
    stored = [len(row[4]) for row in rows if row[4] is not None]
    return {
        "pre_eti_rows": sum(
            len(signature_entries(token, hasher, config))
            for _, values in reference.scan()
            for tokens in TupleTokens.from_values(values).sets
            for token in tokens
        ),
        "eti_rows": len(rows),
        "tid_entries": sum(stored),
        "stop_qgrams": len(rows) - len(stored),
        "max_tid_list": max(stored, default=0),
    }


def build_equals_oracle(db, reference, config, sort_memory_limit):
    """Build with ``sort_memory_limit``; assert rows and counters match the oracle."""
    hasher = MinHasher(config.q, config.signature_size, config.seed)
    eti, stats = build_eti(
        db,
        reference,
        config,
        hasher,
        eti_name=f"eti_{sort_memory_limit}",
        sort_memory_limit=sort_memory_limit,
    )
    assert list(eti.relation.scan()) == eti_oracle(reference, hasher, config)
    counters = oracle_counters(reference, hasher, config)
    assert {name: getattr(stats, name) for name in counters} == counters
    return eti, stats


def fresh_warehouse_digest(page_path, sort_memory_limit):
    """SHA-256 of a fresh warehouse's page file and metadata."""
    db = Database.on_disk(str(page_path))
    reference = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
    reference.load((c.tid, c.values) for c in generate_customers(300, seed=5, unique=True))
    build_eti(db, reference, MatchConfig(), sort_memory_limit=sort_memory_limit)
    save_database(db)
    db.close()
    digest = hashlib.sha256()
    for path in (str(page_path), f"{page_path}.meta.json"):
        with open(path, "rb") as stored:
            digest.update(stored.read())
    return digest.hexdigest()


class TestBuildEquivalence:
    @pytest.mark.parametrize("seed", [3, 11, 2003])
    @pytest.mark.parametrize(
        "scheme", [SignatureScheme.QGRAMS, SignatureScheme.QGRAMS_PLUS_TOKEN]
    )
    def test_spilled_build_equals_one_run_equals_oracle(self, seed, scheme, sort_tmp):
        config = MatchConfig(
            q=3, signature_size=2, scheme=scheme, stop_qgram_threshold=6
        )
        hasher = MinHasher(config.q, config.signature_size, config.seed)
        db = Database.in_memory()
        reference = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
        reference.load(
            (c.tid, c.values) for c in generate_customers(150, seed=seed, unique=True)
        )
        one_run, one_stats = build_eti(db, reference, config, hasher, eti_name="one")
        spilled, stats = build_eti(
            db, reference, config, hasher, eti_name="spilled", sort_memory_limit=700
        )
        assert one_stats.sort.runs == 1 and stats.sort.runs >= 3
        assert stats.sort.spilled_rows > 0 and os.listdir(sort_tmp) == []

        def stored_bytes(eti):
            return [record for _, record in eti.relation.heap.scan()]

        def index_keys(eti):
            return [key for key, _ in eti.relation.index_range(ETI_INDEX)]

        assert stored_bytes(spilled) == stored_bytes(one_run)
        assert index_keys(spilled) == index_keys(one_run)
        oracle = eti_oracle(reference, hasher, config)
        assert list(spilled.relation.scan()) == oracle
        assert index_keys(spilled) == [row[:3] for row in oracle]
        assert any(row[4] is None for row in oracle)  # stop q-grams covered
        for field in ("pre_eti_rows", "eti_rows", "tid_entries", "stop_qgrams"):
            assert getattr(stats, field) == getattr(one_stats, field)
        assert stats.eti_rows == len(oracle)
        assert stats.tid_entries == sum(len(r[4]) for r in oracle if r[4] is not None)
        db.close()

    @pytest.mark.parametrize("limit", [200_000, 700, 2])
    def test_shuffled_load_order_equals_oracle(self, limit, sort_tmp):
        db = Database.in_memory()
        rows = [(c.tid, c.values) for c in generate_customers(150, seed=3, unique=True)]
        random.Random(5).shuffle(rows)
        reference = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
        reference.load(rows)
        scanned = [tid for tid, _ in reference.scan()]
        assert scanned != sorted(scanned)  # heap order is not tid order
        config = MatchConfig(q=3, signature_size=2, stop_qgram_threshold=6)
        build_equals_oracle(db, reference, config, limit)
        assert os.listdir(sort_tmp) == []
        db.close()

    def test_flush_after_every_tuple_equals_oracle(self, sort_tmp):
        db = Database.in_memory()
        reference = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
        reference.load((c.tid, c.values) for c in generate_customers(150, seed=11, unique=True))
        _, stats = build_equals_oracle(db, reference, MatchConfig(), 2)
        assert stats.sort.runs == 150
        assert stats.sort.spilled_rows == stats.sort.rows_in
        db.close()

    @pytest.mark.parametrize("limit", [200_000, 2, 3])
    def test_tokens_sharing_an_entry_count_the_tuple_once(self, limit):
        # 'anna' and 'annab' both index ('anna', 1) under the default
        # config; 'bob' puts postings ahead of them in the tuple.
        db = Database.in_memory()
        reference = ReferenceTable(db, "reference", ["name", "city"])
        reference.load(
            [
                (1, ("anna annab", "seattle")),
                (2, ("bob anna annab", "tacoma")),
                (3, ("carol annab anna", "seattle")),
            ]
        )
        eti, _ = build_equals_oracle(db, reference, MatchConfig(), limit)
        assert eti.lookup("anna", 1, 0).tid_list == [1, 2, 3]
        db.close()

    @pytest.mark.parametrize("threshold", [50, 8])
    def test_key_chunks_spanning_runs_equal_oracle(self, threshold, sort_tmp):
        # Each tuple makes three postings ('acme' twice, 'u<tid>' once), so
        # a limit of 9 cuts a run every three tuples: 'acme's keys get one
        # three-tid chunk in each of four runs.  At threshold 8 no chunk is
        # above the threshold, only the merged tid-list.
        db = Database.in_memory()
        reference = ReferenceTable(db, "reference", ["name"])
        reference.load((tid, (f"acme u{tid}",)) for tid in range(1, 13))
        config = MatchConfig(
            q=3,
            signature_size=2,
            scheme=SignatureScheme.QGRAMS,
            stop_qgram_threshold=threshold,
        )
        eti, stats = build_equals_oracle(db, reference, config, 9)
        assert stats.sort.runs == 4
        acme = [row for row in eti.relation.scan() if row[3] == 12]
        assert len(acme) == 2
        for row in acme:
            assert row[4] == (list(range(1, 13)) if threshold == 50 else None)
        assert stats.stop_qgrams == (0 if threshold == 50 else 2)
        db.close()

    def test_bulk_loaded_index_equals_insert_built(self, org_eti):
        relation = org_eti.relation
        spec_tree = relation._indexes[ETI_INDEX].tree
        inserted = BPlusTree(unique=True)
        for rid, row in relation.scan_with_rids():
            inserted.insert(row[:3], rid)
        spec_tree.check_invariants()
        inserted.check_invariants()
        assert list(spec_tree.items()) == list(inserted.items())
        keys = list(inserted.keys())
        for key in keys:
            assert spec_tree.search(key) == inserted.search(key)
        assert spec_tree.search(("zzz", 9, 9)) == []
        lo, hi = keys[len(keys) // 4], keys[3 * len(keys) // 4]
        assert list(spec_tree.range(lo, hi)) == list(inserted.range(lo, hi))


class TestSameBytesAcrossProcesses:
    @pytest.mark.parametrize("limit", [200_000, 700])
    def test_page_files_do_not_depend_on_the_hash_seed(self, limit, tmp_path):
        script = (
            "import sys\n"
            "from tests.test_eti import fresh_warehouse_digest\n"
            "print(fresh_warehouse_digest(sys.argv[1], int(sys.argv[2])))\n"
        )
        digests = []
        for seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / f"h{seed}.pages"), str(limit)],
                env={
                    **os.environ,
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": os.pathsep.join((str(REPO / "src"), str(REPO))),
                },
                cwd=REPO,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            digests.append(result.stdout.strip())
        assert digests[0] == digests[1]


class TestPageWall:
    """A tid-list that cannot fit one page fails typed, early and clean."""

    # Tids 200 apart: every delta of a tid-list takes two bytes.
    TIDS = range(1000, 1000 + 4200 * 200, 200)

    def shared_token_reference(self, db):
        # Every tuple holds 'alpha'; the first 4 150 also hold 'beta'.
        # At two bytes a tid, both tid-lists (≈ 8 400 and 8 300 bytes)
        # exceed an 8 KiB page; 'alpha' sorts first and is the one the
        # write trips on.
        reference = ReferenceTable(db, "reference", ["name"])
        reference.load(
            (tid, (f"alpha {'beta ' if i < 4150 else ''}u{tid}",))
            for i, tid in enumerate(self.TIDS)
        )
        return reference

    def tokens_only(self, threshold):
        return MatchConfig(
            q=3,
            signature_size=0,
            scheme=SignatureScheme.QGRAMS_PLUS_TOKEN,
            stop_qgram_threshold=threshold,
        )

    def test_typed_error_names_the_way_out(self, sort_tmp):
        db = Database.in_memory()
        reference = self.shared_token_reference(db)
        builder = EtiBuilder(db, self.tokens_only(10_000), sort_memory_limit=3000)
        with pytest.raises(TidListTooLargeError) as raised:
            builder.build(reference)
        error = raised.value
        assert isinstance(error, PageFullError) and isinstance(error, DatabaseError)
        assert error.key == ("alpha", 0, 0)
        assert error.frequency == 4200
        assert error.encoded_bytes > MAX_RECORD_SIZE
        assert error.encoded_bytes == len(
            Schema(eti_columns()).encode(("alpha", 0, 0, 4200, list(self.TIDS)))
        )
        # 'beta' (4 150 tids, found further down the stream) is too large
        # as well, so 4 199 would not have built either.
        assert error.largest_buildable_threshold == 4149
        for text in ("'alpha'", "4200", str(MAX_RECORD_SIZE), "4149"):
            assert text in str(error)

        # Nothing half-built stays behind ...
        assert db.relation_names() == ("reference",)
        assert os.listdir(sort_tmp) == []
        # ... so the same database takes the retry the error suggests,
        with pytest.raises(TidListTooLargeError):
            build_eti(db, reference, self.tokens_only(4150))
        eti, stats = build_eti(db, reference, self.tokens_only(4149))
        assert db.relation_names() == ("reference", "eti")
        assert stats.stop_qgrams == 2
        assert eti.lookup("alpha", 0, 0).tid_list is None
        assert eti.lookup("beta", 0, 0).frequency == 4150
        assert eti.lookup("u1200", 0, 0).tid_list == [1200]
        db.close()


class TestEtiIndex:
    def test_lookup_miss_returns_none(self, org_eti):
        assert org_eti.lookup("zzz", 1, 0) is None

    def test_lookup_counter(self, org_eti, org_reference, org_weights, paper_config, monkeypatch):
        """A query counts its own ETI lookups: one per index probe it makes."""
        calls = []
        lookup = org_eti.lookup
        monkeypatch.setattr(
            org_eti, "lookup", lambda *key: calls.append(key) or lookup(*key)
        )
        matcher = FuzzyMatcher(org_reference, org_weights, paper_config, org_eti)
        for strategy in ("basic", "osc"):
            calls.clear()
            stats = matcher.match(("Beoing Corp", "Seattle", "WA", "98004"), strategy=strategy).stats
            assert stats.eti_lookups == len(calls) > 0

    def test_entry_fields(self, org_db, org_reference):
        config = MatchConfig(
            q=3, signature_size=2, scheme=SignatureScheme.QGRAMS_PLUS_TOKEN
        )
        eti, _ = build_eti(org_db, org_reference, config)
        record = eti.lookup("seattle", TOKEN_COORDINATE, 1)
        assert record.qgram == "seattle"
        assert record.coordinate == TOKEN_COORDINATE
        assert record.column == 1
        assert record.frequency == 3
        assert not record.is_stop_qgram

    def test_stats(self, org_eti):
        stats = org_eti.stats()
        assert stats["rows"] == len(org_eti)
        assert stats["index_entries"] == stats["rows"]
        assert stats["index_height"] >= 1
        assert stats["pages"] >= 1

    def test_clustered_index_present(self, org_eti):
        assert ETI_INDEX in org_eti.relation.index_names()
