"""Stateful (model-based) property tests for the storage engine.

Hypothesis drives random operation sequences against the B+-tree and a
relation, checking every intermediate state against a trivially-correct
in-memory model.
"""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.db.btree import BPlusTree
from repro.db.database import Database
from repro.db.errors import DuplicateKeyError, RecordNotFoundError
from repro.db.types import Column, ColumnType

keys = st.integers(-200, 200)
values = st.integers(0, 10_000)


class BTreeMachine(RuleBasedStateMachine):
    """Unique B+-tree vs dict."""

    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=5)
        self.model: dict[int, int] = {}

    @rule(key=keys, value=values)
    def insert(self, key, value):
        if key in self.model:
            try:
                self.tree.insert(key, value)
                raise AssertionError("duplicate insert must raise")
            except DuplicateKeyError:
                pass
        else:
            self.tree.insert(key, value)
            self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        if key in self.model:
            assert self.tree.delete(key) == 1
            del self.model[key]
        else:
            try:
                self.tree.delete(key)
                raise AssertionError("deleting a missing key must raise")
            except RecordNotFoundError:
                pass

    @rule(key=keys)
    def search(self, key):
        expected = [self.model[key]] if key in self.model else []
        assert self.tree.search(key) == expected

    @rule(lo=keys, hi=keys)
    def range_scan(self, lo, hi):
        if lo > hi:
            lo, hi = hi, lo
        got = [(k, v) for k, v in self.tree.range(lo, hi)]
        expected = sorted(
            (k, v) for k, v in self.model.items() if lo <= k < hi
        )
        assert got == expected

    @invariant()
    def sizes_match(self):
        assert len(self.tree) == len(self.model)

    @invariant()
    def structure_sound(self):
        self.tree.check_invariants()


class DuplicateBTreeMachine(RuleBasedStateMachine):
    """Non-unique B+-tree vs multimap."""

    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=4, unique=False)
        self.model: dict[int, list[int]] = {}

    @rule(key=st.integers(-20, 20), value=values)
    def insert(self, key, value):
        self.tree.insert(key, value)
        self.model.setdefault(key, []).append(value)

    @rule(key=st.integers(-20, 20))
    def delete_all(self, key):
        if self.model.get(key):
            count = len(self.model[key])
            assert self.tree.delete(key) == count
            del self.model[key]

    @rule(key=st.integers(-20, 20))
    def search(self, key):
        assert self.tree.search(key) == self.model.get(key, [])

    @invariant()
    def sizes_match(self):
        assert len(self.tree) == sum(len(v) for v in self.model.values())


class RelationMachine(RuleBasedStateMachine):
    """Relation with a unique index vs dict keyed by the indexed column."""

    rids = Bundle("rids")

    def __init__(self):
        super().__init__()
        self.db = Database.in_memory()
        self.relation = self.db.create_relation(
            "t",
            [Column("k", ColumnType.INT), Column("v", ColumnType.STR, nullable=True)],
        )
        self.relation.create_index("by_k", ["k"], unique=True)
        self.model: dict[int, str | None] = {}
        self.rid_of: dict[int, object] = {}

    @rule(key=keys, value=st.one_of(st.none(), st.text(max_size=10)))
    def insert(self, key, value):
        if key in self.model:
            try:
                self.relation.insert((key, value))
                raise AssertionError("unique index must reject duplicate")
            except DuplicateKeyError:
                pass
        else:
            rid = self.relation.insert((key, value))
            self.model[key] = value
            self.rid_of[key] = rid

    @rule(key=keys)
    def delete(self, key):
        if key in self.model:
            self.relation.delete(self.rid_of[key])
            del self.model[key]
            del self.rid_of[key]

    @rule(
        key=keys,
        value=st.text(max_size=10) | st.integers(0, 3000).map(lambda n: "v" * n),
    )
    def update(self, key, value):
        if key in self.model:
            rid = self.rid_of[key]
            heap = self.relation.heap
            page = heap.pool.get_page(heap._resolve(rid))
            growth = len(self.relation.schema.encode((key, value))) - len(heap.read(rid))
            had_room = growth <= page.free_space + 4  # no new slot entry needed
            new_rid = self.relation.update(rid, (key, value))
            assert (new_rid == rid) == had_room
            self.rid_of[key] = new_rid
            self.model[key] = value

    @rule(key=keys)
    def lookup(self, key):
        if key in self.model:
            assert self.relation.index_get("by_k", key) == (key, self.model[key])
        else:
            assert self.relation.index_lookup("by_k", key) == []

    @invariant()
    def scan_matches_model(self):
        got = sorted(self.relation.scan(), key=lambda r: r[0])
        expected = sorted(self.model.items(), key=lambda r: r[0])
        assert got == [tuple(e) for e in expected]

    def teardown(self):
        self.db.close()


TestBTreeStateful = BTreeMachine.TestCase
TestBTreeStateful.settings = settings(max_examples=30, stateful_step_count=40, deadline=None)

TestDuplicateBTreeStateful = DuplicateBTreeMachine.TestCase
TestDuplicateBTreeStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)

TestRelationStateful = RelationMachine.TestCase
TestRelationStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
