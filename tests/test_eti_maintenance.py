"""Incremental ETI maintenance: insert/delete/update reference tuples."""

import random

import pytest

import repro.core.reference as reference_module
from repro.core.config import MatchConfig, SignatureScheme
from repro.core.matcher import FuzzyMatcher
from repro.core.minhash import MinHasher
from repro.core.reference import ReferenceTable
from repro.core.weights import build_frequency_cache
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.db.page import MAX_RECORD_SIZE
from repro.eti.builder import TidListTooLargeError, build_eti
from repro.eti.maintenance import EtiMaintainer
from repro.eti.signature import signature_entries

from tests.conftest import ORG_ROWS


def eti_as_dict(eti):
    """Materialize the ETI as {key: (frequency, tid_list)} for comparison."""
    return {
        (row[0], row[1], row[2]): (row[3], tuple(row[4]) if row[4] is not None else None)
        for row in eti.relation.scan()
    }


@pytest.fixture()
def maintained(org_db, org_reference, paper_config):
    hasher = MinHasher(paper_config.q, paper_config.signature_size, paper_config.seed)
    eti, _ = build_eti(org_db, org_reference, paper_config, hasher=hasher)
    return EtiMaintainer(org_reference, eti, paper_config, hasher)


class TestInsert:
    def test_incremental_equals_rebuild(self, maintained, org_db, paper_config):
        """Inserting tuples one by one must equal building from scratch."""
        new_rows = [
            (10, ("United Airlines", "Chicago", "IL", "60601")),
            (11, ("Boeing Corporation", "Everett", "WA", "98201")),
        ]
        for tid, values in new_rows:
            maintained.insert_tuple(tid, values)

        fresh_reference = ReferenceTable(
            org_db, "orgs_fresh", list(maintained.reference.column_names)
        )
        fresh_reference.load(list(ORG_ROWS) + new_rows)
        fresh_eti, _ = build_eti(
            org_db, fresh_reference, paper_config,
            hasher=maintained.hasher, eti_name="eti_fresh",
        )
        assert eti_as_dict(maintained.eti) == eti_as_dict(fresh_eti)

    def test_inserted_tuple_is_matchable(self, maintained, org_weights, paper_config):
        maintained.insert_tuple(10, ("Raytheon Systems", "Waltham", "MA", "02451"))
        matcher = FuzzyMatcher(
            maintained.reference, org_weights, paper_config,
            maintained.eti, maintained.hasher,
        )
        result = matcher.match(("Raytheno Systems", "Waltham", "MA", "02451"))
        assert result.best is not None
        assert result.best.tid == 10

    def test_mutation_counter(self, maintained):
        maintained.insert_tuple(10, ("A B", "C", "D", "1"))
        maintained.delete_tuple(10)
        assert maintained.mutations == 2

    def test_reference_grows(self, maintained):
        before = len(maintained.reference)
        maintained.insert_tuple(10, ("X Y", "Z", "W", "2"))
        assert len(maintained.reference) == before + 1
        assert 10 in maintained.reference


class TestDelete:
    def test_delete_then_rebuild_equivalence(self, maintained, org_db, paper_config):
        maintained.delete_tuple(2)

        fresh_reference = ReferenceTable(
            org_db, "orgs_fresh2", list(maintained.reference.column_names)
        )
        fresh_reference.load([row for row in ORG_ROWS if row[0] != 2])
        fresh_eti, _ = build_eti(
            org_db, fresh_reference, paper_config,
            hasher=maintained.hasher, eti_name="eti_fresh2",
        )
        assert eti_as_dict(maintained.eti) == eti_as_dict(fresh_eti)

    def test_deleted_tuple_not_returned(self, maintained, org_weights, paper_config):
        maintained.delete_tuple(1)
        matcher = FuzzyMatcher(
            maintained.reference, org_weights, paper_config,
            maintained.eti, maintained.hasher,
        )
        result = matcher.match(("Boeing Company", "Seattle", "WA", "98004"))
        assert result.best is None or result.best.tid != 1

    def test_delete_returns_values(self, maintained):
        values = maintained.delete_tuple(3)
        assert values == ("Companions", "Seattle", "WA", "98024")
        assert 3 not in maintained.reference

    def test_insert_delete_round_trip(self, maintained):
        baseline = eti_as_dict(maintained.eti)
        maintained.insert_tuple(10, ("Vanguard Holdings", "Denver", "CO", "80014"))
        maintained.delete_tuple(10)
        assert eti_as_dict(maintained.eti) == baseline


class TestUpdate:
    def test_update_rewrites_index(self, maintained, org_weights, paper_config):
        maintained.update_tuple(3, ("Compass Airlines", "Tacoma", "WA", "98402"))
        assert maintained.reference.fetch(3) == (
            "Compass Airlines", "Tacoma", "WA", "98402",
        )
        matcher = FuzzyMatcher(
            maintained.reference, org_weights, paper_config,
            maintained.eti, maintained.hasher,
        )
        result = matcher.match(("Compass Airlnies", "Tacoma", "WA", "98402"))
        assert result.best.tid == 3


class TestStopQGrams:
    def test_stop_qgram_stays_stopped(self, org_db, org_reference):
        config = MatchConfig(
            q=3, signature_size=2, scheme=SignatureScheme.QGRAMS,
            stop_qgram_threshold=2,
        )
        hasher = MinHasher(config.q, config.signature_size, config.seed)
        eti, build_stats = build_eti(org_db, org_reference, config, hasher=hasher)
        assert build_stats.stop_qgrams > 0
        maintainer = EtiMaintainer(org_reference, eti, config, hasher)
        # 'seattle' signature grams are stop q-grams (frequency 3 > 2).
        stop_key = next(
            (row[0], row[1], row[2])
            for row in eti.relation.scan()
            if row[4] is None
        )
        maintainer.insert_tuple(10, ("Sonic Systems", "Seattle", "WA", "98101"))
        row = eti.lookup(*stop_key)
        assert row.tid_list is None  # still NULL
        assert row.frequency >= 3

    def test_crossing_threshold_nulls_list(self, org_db, org_reference):
        config = MatchConfig(
            q=3, signature_size=2, scheme=SignatureScheme.QGRAMS,
            stop_qgram_threshold=3,
        )
        hasher = MinHasher(config.q, config.signature_size, config.seed)
        eti, build_stats = build_eti(org_db, org_reference, config, hasher=hasher)
        assert build_stats.stop_qgrams == 0  # all frequencies <= 3
        maintainer = EtiMaintainer(org_reference, eti, config, hasher)
        # A fourth Seattle tuple pushes 'seattle' q-grams past the threshold.
        maintainer.insert_tuple(10, ("Summit Group", "Seattle", "WA", "98102"))
        entries = signature_entries("seattle", hasher, config)
        for entry in entries:
            row = eti.lookup(entry.gram, entry.coordinate, 1)
            assert row.frequency == 4
            assert row.tid_list is None


class TestStopQGramDeletes:
    def test_stop_qgram_stays_stopped_after_deletes(self, org_db, org_reference):
        """Deleting below the threshold must NOT resurrect a tid-list.

        The list was discarded when the gram stopped; it cannot be
        reconstructed incrementally, so the row keeps a NULL list (at a
        decayed frequency) until a full rebuild.
        """
        config = MatchConfig(
            q=3, signature_size=2, scheme=SignatureScheme.QGRAMS,
            stop_qgram_threshold=2,
        )
        hasher = MinHasher(config.q, config.signature_size, config.seed)
        eti, build_stats = build_eti(org_db, org_reference, config, hasher=hasher)
        assert build_stats.stop_qgrams > 0
        maintainer = EtiMaintainer(org_reference, eti, config, hasher)
        stop_key = next(
            (row[0], row[1], row[2])
            for row in eti.relation.scan()
            if row[4] is None
        )
        # Deleting two of the three Seattle tuples sinks the frequency to
        # 1, well below the threshold of 2 — the list must stay NULL.
        maintainer.delete_tuple(2)
        maintainer.delete_tuple(3)
        row = eti.lookup(*stop_key)
        assert row.frequency == 1
        assert row.tid_list is None

    def test_stopped_row_vanishes_at_frequency_zero(self, org_db, org_reference):
        config = MatchConfig(
            q=3, signature_size=2, scheme=SignatureScheme.QGRAMS,
            stop_qgram_threshold=2,
        )
        hasher = MinHasher(config.q, config.signature_size, config.seed)
        eti, _ = build_eti(org_db, org_reference, config, hasher=hasher)
        maintainer = EtiMaintainer(org_reference, eti, config, hasher)
        stop_key = next(
            (row[0], row[1], row[2])
            for row in eti.relation.scan()
            if row[4] is None
        )
        for tid in (1, 2, 3):
            maintainer.delete_tuple(tid)
        assert eti.lookup(*stop_key) is None  # row deleted with its last tid


class TestRebuildBookkeeping:
    def test_weight_drift_counts_unmirrored_mutations(self, maintained):
        assert maintained.weights is None
        assert maintained.weight_drift == 0
        maintained.insert_tuple(10, ("Drift Co", "Olympia", "WA", "98501"))
        maintained.delete_tuple(10)
        assert maintained.weight_drift == 2
        assert maintained.mutations == 2

    def test_no_drift_with_live_weight_cache(
        self, org_db, org_reference, org_weights, paper_config
    ):
        eti, _ = build_eti(
            org_db, org_reference, paper_config, eti_name="eti_drift"
        )
        maintainer = EtiMaintainer(
            org_reference, eti, paper_config, weights=org_weights
        )
        maintainer.insert_tuple(10, ("Mirror Inc", "Olympia", "WA", "98501"))
        assert maintainer.weight_drift == 0
        assert maintainer.mutations == 1

    def test_rebuild_hint_crosses_threshold(self, org_db, org_reference, paper_config):
        eti, _ = build_eti(
            org_db, org_reference, paper_config, eti_name="eti_hint"
        )
        maintainer = EtiMaintainer(
            org_reference, eti, paper_config, rebuild_threshold=2
        )
        assert not maintainer.rebuild_hint
        maintainer.insert_tuple(10, ("One Co", "Olympia", "WA", "98501"))
        assert not maintainer.rebuild_hint
        maintainer.update_tuple(10, ("Two Co", "Olympia", "WA", "98501"))
        # update = delete + insert = 2 mutations, crossing the threshold.
        assert maintainer.mutations == 3
        assert maintainer.rebuild_hint

    def test_rebuild_hint_off_without_threshold(self, maintained):
        maintained.insert_tuple(10, ("Any Co", "Olympia", "WA", "98501"))
        assert not maintained.rebuild_hint

    def test_rebuild_threshold_validated(self, org_db, org_reference, paper_config):
        eti, _ = build_eti(
            org_db, org_reference, paper_config, eti_name="eti_bad"
        )
        with pytest.raises(ValueError, match="rebuild_threshold"):
            EtiMaintainer(
                org_reference, eti, paper_config, rebuild_threshold=0
            )


class TestWeightDriftStory:
    def test_new_tokens_fall_back_to_average_weight(
        self, maintained, org_weights, paper_config
    ):
        """Weights built before an insert treat new tokens as unseen."""
        maintained.insert_tuple(10, ("Zephyr Dynamics", "Spokane", "WA", "99201"))
        assert org_weights.frequency("zephyr", 0) == 0
        assert org_weights.weight("zephyr", 0) == org_weights.average_weight(0)
        # A rebuilt cache sees them.
        rebuilt = build_frequency_cache(
            maintained.reference.scan_values(), maintained.reference.num_columns
        )
        assert rebuilt.frequency("zephyr", 0) == 1


class TestIncrementalWeights:
    def test_maintained_cache_equals_rebuild(
        self, org_db, org_reference, org_weights, paper_config
    ):
        """add_tuple/remove_tuple keep the cache bit-equal to a rebuild."""
        hasher = MinHasher(
            paper_config.q, paper_config.signature_size, paper_config.seed
        )
        eti, _ = build_eti(
            org_db, org_reference, paper_config, hasher=hasher, eti_name="eti_w"
        )
        maintainer = EtiMaintainer(
            org_reference, eti, paper_config, hasher, weights=org_weights
        )
        maintainer.insert_tuple(10, ("Vortex Industries", "Tacoma", "WA", "98402"))
        maintainer.delete_tuple(2)
        rebuilt = build_frequency_cache(
            org_reference.scan_values(), org_reference.num_columns
        )
        assert org_weights.num_tuples == rebuilt.num_tuples
        probes = [
            ("vortex", 0), ("boeing", 0), ("bon", 0), ("seattle", 1),
            ("tacoma", 1), ("wa", 2), ("98402", 3), ("unseen-token", 0),
        ]
        for token, column in probes:
            assert org_weights.frequency(token, column) == rebuilt.frequency(
                token, column
            ), (token, column)
            assert org_weights.weight(token, column) == pytest.approx(
                rebuilt.weight(token, column)
            ), (token, column)

    def test_deleted_tokens_leave_the_cache(self, org_weights):
        org_weights.add_tuple(("Quark Labs", "Yakima", "WA", "98901"))
        assert org_weights.frequency("quark", 0) == 1
        org_weights.remove_tuple(("Quark Labs", "Yakima", "WA", "98901"))
        assert org_weights.frequency("quark", 0) == 0

    def test_wrong_arity_rejected(self, org_weights):
        with pytest.raises(ValueError):
            org_weights.add_tuple(("only", "three", "cols"))

    def test_maintainer_rejects_non_mutable_weights(
        self, org_db, org_reference, paper_config
    ):
        from repro.core.weights import HashedTokenFrequencyCache

        eti, _ = build_eti(
            org_db, org_reference, paper_config, eti_name="eti_w2"
        )
        hashed = HashedTokenFrequencyCache(3, 4)
        with pytest.raises(TypeError, match="add_tuple"):
            EtiMaintainer(org_reference, eti, paper_config, weights=hashed)


class TestPageWall:
    """A tid-list outgrowing its page fails typed, before any write."""

    # 8-byte varint tids: ~1 000 tuples sharing a token fill one ETI row.
    BIG = 10**15

    def test_insert_past_the_page_wall_is_typed_and_writes_nothing(self):
        config = MatchConfig(q=3, signature_size=2)
        db = Database.in_memory()
        reference = ReferenceTable(db, "shared", ["state"])
        reference.load((self.BIG + i, ("wa",)) for i in range(1_000))
        eti, _ = build_eti(db, reference, config)
        weights = build_frequency_cache(reference.scan_values(), 1)
        maintainer = EtiMaintainer(reference, eti, config, weights=weights, database=db)

        tid = self.BIG + 1_000
        with pytest.raises(TidListTooLargeError) as raised:
            for tid in range(tid, tid + 50):
                maintainer.insert_tuple(tid, ("wa",))
        error = raised.value
        assert error.key[0] in {entry.gram for entry in signature_entries(
            "wa", maintainer.hasher, config
        )}
        assert error.encoded_bytes > MAX_RECORD_SIZE
        assert error.largest_buildable_threshold == error.frequency - 1

        stored = len(reference)
        before = eti_as_dict(eti)
        assert tid not in reference
        assert stored == tid - self.BIG
        # Nothing the failed insert touched was written or counted.
        assert len(reference.relation.heap) == stored
        assert eti_as_dict(eti) == before
        assert weights.num_tuples == stored

        maintainer.insert_tuple(1, ("or",))
        assert 1 in reference and len(reference) == stored + 1
        matcher = FuzzyMatcher(reference, weights, config, eti)
        assert [m.tid for m in matcher.match(("or",)).matches] == [1]
        db.close()


class TestWritesBesideReads:
    """Long-lived matchers answer like a cold one across write bursts.

    The matchers' reference-token caches drop only the tids each burst
    changed, or everything when a burst outruns the change log, which
    the test shrinks so one burst does.  The matcher on the table reads
    between writes (a change log one entry behind); the one on a view
    reads only after each burst.
    """

    LOG = 16
    BURSTS = (3, 9, 2 * LOG + 5, 1, 6)

    @staticmethod
    def answers(matcher, values, strategy):
        return [
            (m.tid, repr(m.similarity))
            for m in matcher.match(values, k=3, strategy=strategy).matches
        ]

    def test_long_lived_matchers_equal_a_cold_one(self, monkeypatch):
        monkeypatch.setattr(reference_module, "CHANGE_LOG_SIZE", self.LOG)
        config = MatchConfig(q=3, signature_size=2)
        rows = [(c.tid, c.values) for c in generate_customers(300, seed=11, unique=True)]
        fresh = iter(
            c.values for c in generate_customers(400, seed=12, unique=True)
        )
        db = Database.in_memory()
        reference = ReferenceTable(db, "customers", list(CUSTOMER_COLUMNS))
        reference.load(rows)
        eti, _ = build_eti(db, reference, config)
        weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
        maintainer = EtiMaintainer(reference, eti, config, weights=weights, database=db)
        long_lived = [
            FuzzyMatcher(reference, weights, config, eti),
            FuzzyMatcher(reference.view(), weights, config, eti),
        ]
        live = dict(rows)
        next_tid = max(live) + 1
        rng = random.Random(5)
        kept_entries = 0
        for size in self.BURSTS:
            touched = rng.sample(sorted(live), size)
            queries = [live[tid] for tid in touched]
            for matcher in long_lived:  # cache every tuple the burst changes
                for values in queries:
                    matcher.match(values, k=3, strategy="basic")
            deleted = []
            for op, tid in enumerate(touched):
                kind = ("update", "delete", "insert")[op % 3]
                if kind == "delete":
                    values = live.pop(tid)
                    maintainer.delete_tuple(tid)
                    deleted.append(tid)
                else:
                    values = next(fresh)
                    if kind == "insert":  # a deleted tid comes back, new values
                        tid = deleted.pop() if deleted else next_tid
                        next_tid = max(next_tid, tid + 1)
                        maintainer.insert_tuple(tid, values)
                    else:
                        maintainer.update_tuple(tid, values)
                    live[tid] = values
                    queries.append(values)
                # One matcher reads between writes, one only after the burst.
                long_lived[0].match(values, k=3, strategy="basic")
            cold = FuzzyMatcher(reference, weights, config, eti)
            for values in queries[:24]:
                for strategy in ("basic", "osc"):
                    expected = self.answers(cold, values, strategy)
                    for matcher in long_lived:
                        assert self.answers(matcher, values, strategy) == expected
            if size < self.LOG:
                kept_entries += len(long_lived[0].caches.reference_tokens)
        assert kept_entries > 0
        assert dict(reference.scan()) == live
        db.close()
