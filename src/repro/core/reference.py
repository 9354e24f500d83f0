"""The reference relation R[tid, A1, ..., An] on the storage engine.

Wraps a :class:`repro.db.Relation` whose first column is the integer tuple
identifier and whose remaining columns are nullable strings, with a unique
B+-tree index on tid (the paper assumes "the reference relation R is
indexed on the Tid attribute" for efficient candidate fetches).  The
paper's Figure 8 metric, reference tuples fetched per input tuple, is
counted per query (``MatchStats.candidates_fetched``).

Verification reads candidates from a *resident store*, not the B+-tree:
every live tuple held in memory as a tuple of interned
:class:`ColumnValue` objects, one per distinct ``(column, raw value)``.
A value shared by many tuples (a city, a state, a zip) is one object, so
the per-query verification memos of :mod:`repro.core.fms`, keyed by it,
pay its work once per query whatever the number of candidates carrying
it (the PASS-JOIN / ApproxJoin idea: preprocess each string once).

- The store is built by one relation scan on the first read
  (:meth:`resident_rows`, :meth:`row`), never on
  :meth:`ReferenceTable.attach` or :meth:`load`: a warehouse that is
  built or reopened but never queried pays no scan.  A server reads it
  once before it reports ready, so no request pays the scan.
- :meth:`insert` and :meth:`delete` change the relation, then the store
  under the store lock, which the lazy build holds from its scan through
  publishing the store: whichever of the two goes first, the store ends
  up equal to the relation.  :meth:`load` drops the store, to be rebuilt
  on the next read.  Readers take no lock: a row is an immutable tuple
  published by one dict assignment, so a reader sees a tuple's old row
  or its new one, never a mix, and never a row the relation never held.
  Writers must still be serialized by their caller (one
  :class:`~repro.eti.maintenance.EtiMaintainer` at a time): the relation's
  B+-tree is not safe for concurrent writers.
- Interned values outlive the tuples that carried them until the next
  :meth:`load`: a deleted tuple's values stay in the interning tables.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.analysis.debuglock import make_lock
from repro.core.strings import char_mask
from repro.core.tokens import tokenize
from repro.db.database import Database
from repro.db.errors import RecordNotFoundError
from repro.db.types import Column, ColumnType

TID_INDEX = "tid_idx"


class ColumnValue:
    """One distinct raw value of one column: the string and its tokens.

    Hashed and compared by identity, so a memo keyed by it costs one
    pointer hash.  ``raw`` is the attribute value as stored (``None`` for
    NULL); ``tokens`` is its ordered token sequence, duplicates kept, as
    the transformation-cost DP reads it.
    """

    __slots__ = ("raw", "tokens")

    def __init__(self, raw: str | None, tokens: tuple[str, ...]) -> None:
        self.raw = raw
        self.tokens = tokens

    def __repr__(self) -> str:
        return f"ColumnValue({self.raw!r})"


#: One resident reference tuple: an interned value per attribute column.
Row = tuple[ColumnValue, ...]


class Interner:
    """Hands out one :class:`ColumnValue` per distinct ``(column, raw value)``.

    Token strings are shared too: a token that occurs in many values is one
    string object.  ``masks`` maps every token interned so far to its
    :func:`~repro.core.strings.char_mask`, computed once per token, for the
    fms bound.  Not thread-safe on its own; the store only interns under
    its lock, and the naive scan uses a private interner per query.
    """

    def __init__(self, num_columns: int) -> None:
        self._values: list[dict[str | None, ColumnValue]] = [
            {} for _ in range(num_columns)
        ]
        self._tokens: dict[str, str] = {}
        self.masks: dict[str, int] = {}

    def row(self, values: Sequence[str | None]) -> Row:
        """The interned row of attribute ``values``."""
        return tuple(
            self.value(column, raw) for column, raw in enumerate(values)
        )

    def value(self, column: int, raw: str | None) -> ColumnValue:
        """The interned value ``raw`` of ``column``, tokenized on first sight."""
        known = self._values[column]
        found = known.get(raw)
        if found is None:
            found = ColumnValue(raw, tuple(self._token(t) for t in tokenize(raw)))
            known[raw] = found
        return found

    def _token(self, token: str) -> str:
        shared = self._tokens.get(token)
        if shared is None:
            shared = self._tokens[token] = token
            self.masks[token] = char_mask(token)
        return shared


class ReferenceTable:
    """A clean reference relation with tid-indexed access and a resident store."""

    def __init__(
        self,
        db: Database,
        name: str,
        column_names: Sequence[str],
    ) -> None:
        if not column_names:
            raise ValueError("a reference relation needs at least one column")
        self.name = name
        self.column_names = tuple(column_names)
        columns = [Column("tid", ColumnType.INT)]
        columns.extend(Column(c, ColumnType.STR, nullable=True) for c in column_names)
        self.relation = db.create_relation(name, columns)
        self.relation.create_index(TID_INDEX, ["tid"], unique=True)
        # The resident store (tid -> Row) and its interner: None until the
        # first read builds both.
        self._store: dict[int, Row] | None = None
        self._interner: Interner | None = None
        self._store_lock = make_lock("ReferenceTable._store_lock")

    @classmethod
    def attach(cls, db: Database, name: str, column_names: Sequence[str]) -> "ReferenceTable":
        """Wrap an existing relation (e.g. one reopened from a snapshot).

        The relation must already carry the tid-first schema and the unique
        tid index that :class:`ReferenceTable` creates.
        """
        relation = db.relation(name)
        expected = ("tid",) + tuple(column_names)
        if relation.schema.names != expected:
            raise ValueError(
                f"relation {name!r} has columns {relation.schema.names}, "
                f"expected {expected}"
            )
        if TID_INDEX not in relation.index_names():
            relation.create_index(TID_INDEX, ["tid"], unique=True)
        table = cls.__new__(cls)
        table.name = name
        table.column_names = tuple(column_names)
        table.relation = relation
        table._store = None
        table._interner = None
        table._store_lock = make_lock("ReferenceTable._store_lock")
        return table

    @property
    def num_columns(self) -> int:
        """Number of attribute columns (tid excluded)."""
        return len(self.column_names)

    def __len__(self) -> int:
        return len(self.relation)

    def _row(self, tid: int, values: Sequence[str | None]) -> tuple[object, ...]:
        if len(values) != self.num_columns:
            raise ValueError(
                f"expected {self.num_columns} values, got {len(values)}"
            )
        return (tid,) + tuple(values)

    def insert(self, tid: int, values: Sequence[str | None]) -> None:
        """Insert one reference tuple."""
        self.relation.insert(self._row(tid, values))
        with self._store_lock:
            if self._store is not None and self._interner is not None:
                self._store[tid] = self._interner.row(values)

    def load(self, rows: Iterable[tuple[int, Sequence[str | None]]]) -> int:
        """Bulk load ``(tid, values)`` pairs; returns the count.

        Rows stream into the heap and the tid index is built from their
        sorted keys in one pass (:meth:`Relation.insert_many`); a duplicate
        tid still raises ``DuplicateKeyError`` before its row is written.
        The resident store is dropped, to be rebuilt by the next read.
        """
        try:
            return self.relation.insert_many(
                self._row(tid, values) for tid, values in rows
            )
        finally:
            with self._store_lock:
                self._store = None
                self._interner = None

    def fetch(self, tid: int) -> tuple[str | None, ...]:
        """Fetch the attribute values of tuple ``tid`` via the tid index."""
        row = self.relation.index_get(TID_INDEX, tid)
        return row[1:]

    def delete(self, tid: int) -> tuple[str | None, ...]:
        """Remove tuple ``tid``; returns its attribute values."""
        rid = self.relation.find_rid(TID_INDEX, tid)
        values = self.relation.fetch(rid)[1:]
        self.relation.delete(rid)
        with self._store_lock:
            if self._store is not None:
                self._store.pop(tid, None)
        return values

    def resident_rows(self) -> Mapping[int, Row]:  # reprolint: disable=lock-discipline
        """The resident store: ``tid → Row`` for every live tuple.

        The first call builds it (see :meth:`_build_store`).  Lock-free:
        the store is read through one reference, and each row in it is an
        immutable tuple replaced whole by the writers.  A query binds the
        mapping once and reads the store it started with: :meth:`insert`
        and :meth:`delete` edit that mapping in place, so they stay
        visible to it, while a bulk :meth:`load` publishes a new store
        that only later callers see.
        """
        store = self._store
        if store is None:
            store = self._build_store()
        return store

    def token_masks(self) -> Mapping[str, int]:  # reprolint: disable=lock-discipline
        """``token → char_mask(token)`` for every token the resident store
        has interned (empty until the store is built).

        Lock-free like :meth:`resident_rows`, and kept current by the same
        writes.  Bind it after :meth:`resident_rows`: a token it lacks (a
        bulk :meth:`load` published a new store in between) is the
        caller's to compute.
        """
        interner = self._interner
        return {} if interner is None else interner.masks

    def row(self, tid: int) -> Row | None:
        """The resident row of tuple ``tid``; None when the relation lacks it."""
        return self.resident_rows().get(tid)

    def _build_store(self) -> dict[int, Row]:
        """Scan the relation once into the resident store, under the lock."""
        with self._store_lock:
            store = self._store
            if store is None:
                interner = Interner(self.num_columns)
                store = {tid: interner.row(values) for tid, values in self.scan()}
                self._interner = interner
                self._store = store
            return store

    def __contains__(self, tid: int) -> bool:
        try:
            self.relation.index_get(TID_INDEX, tid)
        except RecordNotFoundError:
            return False
        return True

    def scan(self) -> Iterator[tuple[int, tuple[str | None, ...]]]:
        """Yield ``(tid, values)`` for every reference tuple."""
        for row in self.relation.scan():
            yield row[0], row[1:]

    def scan_values(self) -> Iterator[tuple[str | None, ...]]:
        """Yield attribute values only (for frequency-cache building)."""
        for _, values in self.scan():
            yield values
