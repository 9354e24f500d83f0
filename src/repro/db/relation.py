"""Relations: schema + heap storage + secondary indexes.

A :class:`Relation` stores encoded rows in a heap file and maintains any
number of named B+-tree indexes over column subsets.  This is the shape the
paper requires: the reference relation indexed on ``Tid`` and the ETI
relation with its clustered index on ``[QGram, Coordinate, Column]``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Collection, Iterable, Iterator, Sequence

from repro.db.btree import BPlusTree
from repro.db.errors import DuplicateKeyError, RecordNotFoundError, RelationError
from repro.db.heap import HeapFile, RecordId
from repro.db.pager import BufferPool
from repro.db.types import Row, Schema


class _IndexSpec:
    __slots__ = ("name", "positions", "tree", "unique")

    def __init__(self, name: str, positions: tuple[int, ...], unique: bool) -> None:
        self.name = name
        self.positions = positions
        self.unique = unique
        self.tree = BPlusTree(unique=unique)

    def key_of(self, row: Row) -> Any:
        if len(self.positions) == 1:
            return row[self.positions[0]]
        return tuple(row[p] for p in self.positions)

    def check_unique(
        self, key: Any, relation_name: str, pending: Collection[Any] = ()
    ) -> None:
        """Raise if a unique index already holds ``key`` (or ``pending`` does)."""
        if self.unique and (key in pending or key in self.tree):
            raise DuplicateKeyError(
                f"duplicate key {key!r} for index {self.name!r} on {relation_name!r}"
            )

    def extend(self, items: list[tuple[Any, RecordId]]) -> None:
        """Add ``(key, rid)`` entries: sorted, then one bulk load.

        An empty tree is replaced by a bottom-up :meth:`BPlusTree.bulk_load`
        (which re-checks order and uniqueness); a tree that already holds
        entries takes the new ones key by key.  The sort is stable, so
        duplicate keys keep the order their rows were stored in.
        """
        items.sort(key=itemgetter(0))
        if len(self.tree):
            for key, rid in items:
                self.tree.insert(key, rid)
        else:
            self.tree = BPlusTree.bulk_load(items, unique=self.unique)


class Relation:
    """A named, schema-checked collection of rows with optional indexes."""

    def __init__(self, name: str, schema: Schema, pool: BufferPool) -> None:
        self.name = name
        self.schema = schema
        self.heap = HeapFile(pool)
        self._indexes: dict[str, _IndexSpec] = {}
        # Leading columns that hold every index key: all a delete or an
        # update needs to decode of the old row.
        self._key_columns = 0

    def __len__(self) -> int:
        return len(self.heap)

    @property
    def num_pages(self) -> int:
        return self.heap.num_pages

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------

    def create_index(
        self, index_name: str, columns: Sequence[str], unique: bool = False
    ) -> None:
        """Create a B+-tree index on ``columns``, indexing existing rows.

        Only the columns up to the last key column are decoded (an ETI key
        never pays for its tid-list), and the tree is bulk-loaded from the
        sorted keys — also how a reopened snapshot rebuilds its indexes.
        """
        if index_name in self._indexes:
            raise RelationError(f"index {index_name!r} already exists on {self.name}")
        positions = tuple(self.schema.position(c) for c in columns)
        spec = _IndexSpec(index_name, positions, unique)
        leading = max(positions) + 1
        decode = self.schema.decode
        spec.extend(
            [(spec.key_of(decode(record, leading)), rid) for rid, record in self.heap.scan()]
        )
        self._indexes[index_name] = spec
        self._key_columns = max(self._key_columns, leading)

    def index_names(self) -> tuple[str, ...]:
        """Names of the relation's indexes."""
        return tuple(self._indexes)

    def _index(self, index_name: str) -> _IndexSpec:
        try:
            return self._indexes[index_name]
        except KeyError:
            raise RelationError(
                f"no index {index_name!r} on relation {self.name!r}"
            ) from None

    # ------------------------------------------------------------------
    # Row operations
    # ------------------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> RecordId:
        """Validate, store, and index ``row``; return its record id.

        Unique constraints are checked before anything is written, so a
        rejected insert leaves no orphan heap row behind.
        """
        record = self.schema.encode(row)  # validates
        specs = self._indexes.values()
        keys = [spec.key_of(row) for spec in specs]
        for spec, key in zip(specs, keys):
            spec.check_unique(key, self.name)
        rid = self.heap.insert(record)
        for spec, key in zip(specs, keys):
            spec.tree.insert(key, rid)
        return rid

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk insert; returns the number of rows stored.

        Rows are appended to the heap as they stream in, each checked
        against the schema and the unique indexes first like
        :meth:`insert`; their index entries are collected and folded into
        the trees once, sorted, when the stream ends.  If a row is
        rejected (or the stream itself raises) the rows stored before it
        stay stored and indexed, the rejected one leaves nothing behind.
        """
        specs = tuple(self._indexes.values())
        pending: list[list[tuple[Any, RecordId]]] = [[] for _ in specs]
        batch_keys: list[set[Any]] = [set() for _ in specs]
        encode = self.schema.encode
        store = self.heap.insert
        count = 0
        try:
            for row in rows:
                record = encode(row)  # validates
                keys = [spec.key_of(row) for spec in specs]
                for spec, key, seen in zip(specs, keys, batch_keys):
                    spec.check_unique(key, self.name, seen)
                    if spec.unique:
                        seen.add(key)
                rid = store(record)
                for items, key in zip(pending, keys):
                    items.append((key, rid))
                count += 1
        finally:
            for spec, items in zip(specs, pending):
                spec.extend(items)
        return count

    def fetch(self, rid: RecordId) -> Row:
        """Fetch the row stored at ``rid``."""
        return self.schema.decode(self.heap.read(rid))

    def _stored_keys(self, rid: RecordId) -> Row:
        """The leading columns of the row at ``rid`` that the indexes read."""
        return self.schema.decode(self.heap.read(rid), self._key_columns)

    def delete(self, rid: RecordId) -> None:
        """Delete the row at ``rid`` from the heap and all indexes."""
        row = self._stored_keys(rid)
        self.heap.delete(rid)
        for spec in self._indexes.values():
            spec.tree.delete(spec.key_of(row), rid)

    def update(self, rid: RecordId, row: Sequence[Any]) -> RecordId:
        """Replace the row at ``rid``; returns the row's record id.

        The row is rewritten in place and keeps ``rid`` whenever its page
        can absorb the new size (:meth:`HeapFile.update`); otherwise it is
        relocated and the new id is returned, so callers holding the old
        rid must switch to the returned one.  An index entry is touched
        only when its key or the rid changed.
        """
        record = self.schema.encode(row)  # validates
        old_row = self._stored_keys(rid)
        keys = [
            (spec, spec.key_of(old_row), spec.key_of(row))
            for spec in self._indexes.values()
        ]
        for spec, old_key, new_key in keys:
            if new_key != old_key:
                spec.check_unique(new_key, self.name)
        new_rid = self.heap.update(rid, record)
        for spec, old_key, new_key in keys:
            if new_rid != rid or new_key != old_key:
                spec.tree.delete(old_key, rid)
                spec.tree.insert(new_key, new_rid)
        return new_rid

    def update_record(self, rid: RecordId, record: bytes) -> RecordId:
        """Replace the row at ``rid`` with an already-encoded ``record``.

        For a caller that edits encoded rows itself (:meth:`Schema.splice`)
        and keeps every index key.  The record is stored as given, in place
        or relocated exactly as :meth:`update` stores a row, and the rid it
        now has is returned; index entries move only on relocation.  The
        key columns must encode to the stored row's bytes — compared as
        bytes, nothing is decoded — or :class:`RelationError` is raised
        with nothing written.
        """
        old = self.heap.read(rid)
        keys_end = self.schema.prefix_size(old, self._key_columns)
        if record[:keys_end] != old[:keys_end]:
            raise RelationError(
                f"update_record on {self.name!r} would change an index key at {rid}"
            )
        new_rid = self.heap.update(rid, record)
        if new_rid != rid:
            row = self.schema.decode(old, self._key_columns)
            for spec in self._indexes.values():
                key = spec.key_of(row)
                spec.tree.delete(key, rid)
                spec.tree.insert(key, new_rid)
        return new_rid

    def find_rid(self, index_name: str, key: Any) -> RecordId:
        """Record id of the single row whose index key equals ``key``."""
        spec = self._index(index_name)
        rid = spec.tree.get(key)
        if rid is None:
            raise RecordNotFoundError(
                f"key {key!r} not found in index {index_name!r} of {self.name!r}"
            )
        return rid

    def scan(self) -> Iterator[Row]:
        """Yield every row in heap order."""
        for _, row in self._scan_decoded():
            yield row

    def scan_with_rids(self) -> Iterator[tuple[RecordId, Row]]:
        """Yield ``(rid, row)`` pairs in heap order."""
        return self._scan_decoded()

    def _scan_decoded(self) -> Iterator[tuple[RecordId, Row]]:
        for rid, record in self.heap.scan():
            yield rid, self.schema.decode(record)

    # ------------------------------------------------------------------
    # Index access paths
    # ------------------------------------------------------------------

    def index_lookup(self, index_name: str, key: Any) -> list[Row]:
        """Exact-match lookup: all rows whose index key equals ``key``."""
        spec = self._index(index_name)
        return [self.fetch(rid) for rid in spec.tree.search(key)]

    def index_get(self, index_name: str, key: Any) -> Row:
        """Exact-match lookup expecting one row; raises if absent."""
        spec = self._index(index_name)
        rid = spec.tree.get(key)
        if rid is None:
            raise RecordNotFoundError(
                f"key {key!r} not found in index {index_name!r} of {self.name!r}"
            )
        return self.fetch(rid)

    def index_range(
        self, index_name: str, lo: Any = None, hi: Any = None
    ) -> Iterator[tuple[Any, Row]]:
        """Yield ``(key, row)`` for keys in ``[lo, hi)`` in key order."""
        spec = self._index(index_name)
        for key, rid in spec.tree.range(lo, hi):
            yield key, self.fetch(rid)

    def index_stats(self, index_name: str) -> dict[str, int]:
        """Entry count and height of one index."""
        spec = self._index(index_name)
        return {"entries": len(spec.tree), "height": spec.tree.height}
