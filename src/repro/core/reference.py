"""The reference relation R[tid, A1, ..., An] on the storage engine.

Wraps a :class:`repro.db.Relation` whose first column is the integer tuple
identifier and whose remaining columns are nullable strings, with a unique
B+-tree index on tid (the paper assumes "the reference relation R is
indexed on the Tid attribute" for efficient candidate fetches).

Fetch accounting (`fetches`) backs the paper's Figure 8 metric — the number
of reference tuples fetched per input tuple.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.db.database import Database
from repro.db.errors import RecordNotFoundError
from repro.db.types import Column, ColumnType

TID_INDEX = "tid_idx"


class ReferenceTable:
    """A clean reference relation with tid-indexed access."""

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
        self.fetches = 0
        self._version_box = [0]

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
        table.fetches = 0
        table._version_box = [0]
        return table

    def view(self) -> "ReferenceTable":
        """A handle onto the same stored relation with its own counters.

        Views share the relation, the tid index, and the mutation version
        (an insert through any view invalidates caches everywhere), but
        count fetches independently — the parallel batch engine gives each
        worker a view so per-query statistics stay race-free.
        """
        table = ReferenceTable.__new__(ReferenceTable)
        table.name = self.name
        table.column_names = self.column_names
        table.relation = self.relation
        table.fetches = 0
        table._version_box = self._version_box
        return table

    @property
    def version(self) -> int:
        """Bumped on every insert/delete; cache layers watch this."""
        return self._version_box[0]

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
        self._version_box[0] += 1

    def load(self, rows: Iterable[tuple[int, Sequence[str | None]]]) -> int:
        """Bulk load ``(tid, values)`` pairs; returns the count.

        Rows stream into the heap and the tid index is built from their
        sorted keys in one pass (:meth:`Relation.insert_many`); a duplicate
        tid still raises ``DuplicateKeyError`` before its row is written.
        """
        stored_before = len(self.relation)
        try:
            return self.relation.insert_many(
                self._row(tid, values) for tid, values in rows
            )
        finally:
            self._version_box[0] += len(self.relation) - stored_before

    def fetch(self, tid: int) -> tuple[str | None, ...]:
        """Fetch the attribute values of tuple ``tid`` via the tid index."""
        self.fetches += 1
        row = self.relation.index_get(TID_INDEX, tid)
        return row[1:]

    def delete(self, tid: int) -> tuple[str | None, ...]:
        """Remove tuple ``tid``; returns its attribute values."""
        rid = self.relation.find_rid(TID_INDEX, tid)
        values = self.relation.fetch(rid)[1:]
        self.relation.delete(rid)
        self._version_box[0] += 1
        return values

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

    def reset_fetch_counter(self) -> None:
        """Zero the fetch counter (per-experiment accounting)."""
        self.fetches = 0
