"""Incremental ETI maintenance: insert/delete/update reference tuples."""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core.config import MatchConfig, SignatureScheme
from repro.core.matcher import FuzzyMatcher
from repro.core.minhash import MinHasher
from repro.core.reference import ReferenceTable
from repro.core.weights import build_frequency_cache
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.db.page import MAX_RECORD_SIZE
from repro.db.snapshot import save_database
from repro.db.types import Schema
from repro.eti.builder import TidListTooLargeError, build_eti
from repro.eti.maintenance import EtiMaintainer
from repro.eti.signature import signature_entries

from tests.conftest import ORG_ROWS
from tests.test_reference import resident

REPO = Path(__file__).resolve().parent.parent


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

    # Tids 2**32 apart take 8-byte deltas: ~1 000 tuples sharing a token
    # fill one ETI row.
    BIG = 10**15
    STEP = 2**32

    def test_insert_past_the_page_wall_is_typed_and_writes_nothing(self):
        config = MatchConfig(q=3, signature_size=2)
        db = Database.in_memory()
        reference = ReferenceTable(db, "shared", ["state"])
        reference.load((self.BIG + i * self.STEP, ("wa",)) for i in range(1_000))
        eti, _ = build_eti(db, reference, config)
        weights = build_frequency_cache(reference.scan_values(), 1)
        maintainer = EtiMaintainer(reference, eti, config, weights=weights, database=db)

        tid = self.BIG + 1_000 * self.STEP
        with pytest.raises(TidListTooLargeError) as raised:
            for tid in range(tid, tid + 50 * self.STEP, self.STEP):
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
        assert stored == (tid - self.BIG) // self.STEP
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

    Every matcher reads candidates from the reference relation's resident
    store, which the maintainer's writes keep current.  One matcher reads
    between writes; the other reads only after each burst.  After every
    burst the store equals the relation row for row.
    """

    BURSTS = (3, 9, 37, 1, 6)

    @staticmethod
    def answers(matcher, values, strategy):
        return [
            (m.tid, repr(m.similarity))
            for m in matcher.match(values, k=3, strategy=strategy).matches
        ]

    def test_long_lived_matchers_equal_a_cold_one(self):
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
            FuzzyMatcher(reference, weights, config, eti),
        ]
        live = dict(rows)
        next_tid = max(live) + 1
        rng = random.Random(5)
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
            assert resident(reference) == dict(reference.scan()) == live
        assert dict(reference.scan()) == live
        db.close()


class TestHeapSpace:
    """Maintained heaps stay about the size of a fresh build.

    Pages compact away deleted and relocated rows' bytes before they
    refuse a write, so a row leaves its page only when live bytes fill
    it.  Without that the ETI heap more than doubled here.
    """

    @staticmethod
    def build(rows, config):
        db = Database.in_memory()
        reference = ReferenceTable(db, "customers", list(CUSTOMER_COLUMNS))
        reference.load(rows)
        eti, _ = build_eti(db, reference, config)
        return db, reference, eti

    def test_inserts_and_deletes_do_not_leak_pages(self):
        config = MatchConfig()
        customers = [(c.tid, c.values) for c in generate_customers(1600, seed=7, unique=True)]
        rows, fresh = customers[:1000], customers[1000:]
        db, reference, eti = self.build(rows, config)
        weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
        maintainer = EtiMaintainer(reference, eti, config, weights=weights, database=db)
        for i, (tid, values) in enumerate(fresh):  # 600 inserts, 150 deletes
            maintainer.insert_tuple(tid, values)
            if i % 4 == 3:
                maintainer.delete_tuple(fresh[i - 3][0])
        maintained = sum(db.relation(name).num_pages for name in db.relation_names())
        fresh_db, _, _ = self.build(sorted(reference.scan()), config)
        built = sum(fresh_db.relation(name).num_pages for name in fresh_db.relation_names())
        assert maintained <= 1.15 * built, (maintained, built)
        db.close()
        fresh_db.close()


def rebuilt(rows, config, hasher=None):
    """``eti_as_dict`` of a fresh build over ``rows`` (four columns)."""
    db = Database.in_memory()
    reference = ReferenceTable(db, "fresh", ["name", "city", "state", "zip"])
    reference.load(rows)
    eti, _ = build_eti(db, reference, config, hasher=hasher)
    state = eti_as_dict(eti)
    db.close()
    return state


class TestSharedSignatureEntries:
    """A key two tokens of one tuple share counts that tuple once.

    ``anna`` has at most q characters, so it is its own coordinate-1
    entry, and ``annab``'s coordinate-1 min-hash q-gram is ``anna`` too.
    """

    BASE = [
        (1, ("bob smith", "seattle", "wa", "98101")),
        (2, ("carol jones", "tacoma", "wa", "98402")),
    ]
    NEW = (3, ("anna annab", "seattle", "wa", "98101"))

    def maintained(self, config, base):
        db = Database.in_memory()
        reference = ReferenceTable(db, "r", ["name", "city", "state", "zip"])
        reference.load(base)
        eti, _ = build_eti(db, reference, config)
        return EtiMaintainer(reference, eti, config)

    def test_the_entry_is_shared(self):
        config = MatchConfig()
        hasher = MinHasher(config.q, config.signature_size, config.seed)
        keys = [
            (entry.gram, entry.coordinate)
            for token in ("anna", "annab")
            for entry in signature_entries(token, hasher, config)
        ]
        assert keys.count(("anna", 1)) == 2

    def test_insert_equals_rebuild(self):
        config = MatchConfig()
        maintainer = self.maintained(config, self.BASE)
        maintainer.insert_tuple(*self.NEW)
        state = eti_as_dict(maintainer.eti)
        assert state[("anna", 1, 0)] == (1, (3,))
        assert state == rebuilt(self.BASE + [self.NEW], config)
        maintainer.delete_tuple(3)
        assert eti_as_dict(maintainer.eti) == rebuilt(self.BASE, config)

    def test_stop_row_counts_the_tuple_once(self):
        config = MatchConfig(stop_qgram_threshold=2)
        base = self.BASE + [
            (tid, (f"anna x{tid}", "spokane", "or", f"9700{tid}")) for tid in (4, 5, 6)
        ]
        maintainer = self.maintained(config, base)
        assert maintainer.eti.lookup("anna", 1, 0).tid_list is None
        maintainer.insert_tuple(*self.NEW)
        assert maintainer.eti.lookup("anna", 1, 0).frequency == 4
        assert eti_as_dict(maintainer.eti) == rebuilt(base + [self.NEW], config)

    def test_a_list_at_the_threshold_does_not_stop_early(self):
        config = MatchConfig(stop_qgram_threshold=3)
        base = self.BASE + [(4, ("anna x4", "spokane", "or", "97004"))]
        maintainer = self.maintained(config, base)
        maintainer.insert_tuple(*self.NEW)
        assert maintainer.eti.lookup("anna", 1, 0).tid_list == [3, 4]
        assert eti_as_dict(maintainer.eti) == rebuilt(base + [self.NEW], config)


# ----------------------------------------------------------------------
# Spliced tid-list edits: byte-identical to decode, edit, encode
# ----------------------------------------------------------------------

CHURN_CONFIG = MatchConfig(q=3, signature_size=2, stop_qgram_threshold=40)
HOT_CITY = "hotcity"
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def churn_tid(rng):
    """A tid from 1-, 2-, 3- or 8-byte varint ranges, in no order."""
    return rng.choice(
        (
            rng.randrange(0, 300),
            rng.randrange(16_000, 16_800),
            rng.randrange(2**49, 2**56),
        )
    )


def churn_words(rng, count):
    return ["".join(rng.choice(LETTERS) for _ in range(rng.randint(2, 8))) for _ in range(count)]


def churn_values(rng, pools, city=None):
    names, cities, states = pools
    return (
        f"{rng.choice(names)} {rng.choice(names)}",
        city or rng.choice(cities),
        rng.choice(states),
        str(rng.randrange(10**5)),
    )


def churn_world(seed=7):
    """Seeded base rows plus a burst of ``(kind, tid, values)`` mutations.

    The burst inserts out-of-order tids of every varint width, deletes
    and updates tuples from anywhere in the lists, and one insert takes
    the ``HOT_CITY`` entries past the stop threshold.  Tuples in that
    city are never deleted or updated, so the maintained ETI must equal
    a rebuild.
    """
    rng = random.Random(seed)
    pools = (churn_words(rng, 80), churn_words(rng, 30), churn_words(rng, 20))
    tids = set()
    while len(tids) < 460:
        tids.add(churn_tid(rng))
    fresh = sorted(tids)
    rng.shuffle(fresh)
    threshold = CHURN_CONFIG.stop_qgram_threshold
    base = [
        (tid, churn_values(rng, pools, HOT_CITY if i < threshold else None))
        for i, tid in enumerate(fresh[:160])
    ]
    live = {tid: values for tid, values in base}
    ops = []
    for step, tid in enumerate(fresh[160:]):
        cold = sorted(t for t, v in live.items() if v[1] != HOT_CITY)
        roll = rng.random()
        if step == 150:
            ops.append(("insert", tid, churn_values(rng, pools, HOT_CITY)))
        elif roll < 0.5:
            ops.append(("insert", tid, churn_values(rng, pools)))
        elif roll < 0.75:
            ops.append(("delete", rng.choice(cold), None))
        else:
            victim = rng.choice(cold)
            old = live[victim]
            ops.append(("update", victim, (churn_values(rng, pools)[0], *old[1:])))
        kind, tid, values = ops[-1]
        if kind == "delete":
            del live[tid]
        else:
            live[tid] = values
    return base, ops, live


def churned_warehouse(page_path, seed=7):
    """Apply ``churn_world``'s burst to a fresh warehouse; return its ETI.

    The database is checkpointed and closed, so ``page_path`` holds
    every page the mutations wrote.
    """
    base, ops, _ = churn_world(seed)
    db = Database.on_disk(str(page_path))
    reference = ReferenceTable(db, "churn", ["name", "city", "state", "zip"])
    reference.load(base)
    eti, _ = build_eti(db, reference, CHURN_CONFIG)
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    maintainer = EtiMaintainer(reference, eti, CHURN_CONFIG, weights=weights, database=db)
    for kind, tid, values in ops:
        if kind == "insert":
            maintainer.insert_tuple(tid, values)
        elif kind == "delete":
            maintainer.delete_tuple(tid)
        else:
            maintainer.update_tuple(tid, values)
    state = eti_as_dict(eti)
    save_database(db)
    db.close()
    return state


class TestSplicedEdits:
    """The splice path writes what decode → edit → encode writes, byte for byte."""

    def test_splice_and_fallback_write_identical_pages(self, tmp_path, monkeypatch):
        splice = Schema.splice
        spliced = Counter()

        def counting(schema, data, value, add, ints=None):
            out = splice(schema, data, value, add, ints)
            spliced["add" if add else "remove", out is not None] += 1
            return out

        monkeypatch.setattr(Schema, "splice", counting)
        state = churned_warehouse(tmp_path / "splice.pages")
        monkeypatch.setattr(Schema, "splice", lambda *args, **kwargs: None)
        fallback = churned_warehouse(tmp_path / "fallback.pages")

        # Both edits were spliced, and a remove that empties a row declined.
        assert spliced["add", True] > 1000, spliced
        assert spliced["remove", True] > 1000, spliced
        assert spliced["remove", False] >= 1, spliced
        assert state == fallback
        assert (tmp_path / "splice.pages").read_bytes() == (
            tmp_path / "fallback.pages"
        ).read_bytes()
        _, _, live = churn_world()
        assert state == rebuilt(sorted(live.items()), CHURN_CONFIG)
        hot = signature_entries(HOT_CITY, MinHasher(3, 2, CHURN_CONFIG.seed), CHURN_CONFIG)
        for entry in hot:
            key = (entry.gram, entry.coordinate, 1)
            assert state[key] == (CHURN_CONFIG.stop_qgram_threshold + 1, None)
        assert any(tid >= 2**49 for tid in live)


class TestSameBytesAcrossProcesses:
    def test_page_files_do_not_depend_on_the_hash_seed(self, tmp_path):
        script = (
            "import hashlib, sys\n"
            "from tests.test_eti_maintenance import churned_warehouse\n"
            "churned_warehouse(sys.argv[1])\n"
            "print(hashlib.sha256(open(sys.argv[1], 'rb').read()).hexdigest())\n"
        )
        digests = []
        for seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / f"h{seed}.pages")],
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
