"""The reference relation R[tid, A1, ..., An] on the storage engine.

Wraps a :class:`repro.db.Relation` whose first column is the integer tuple
identifier and whose remaining columns are nullable strings, with a unique
B+-tree index on tid (the paper assumes "the reference relation R is
indexed on the Tid attribute" for efficient candidate fetches).  The
paper's Figure 8 metric, reference tuples fetched per input tuple, is
counted per query (``MatchStats.candidates_fetched``).

Every insert and delete bumps a mutation version and logs the tid it
changed; a cache keyed by tid asks :meth:`ReferenceTable.changed_since`
which tids to drop instead of emptying itself.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterable, Iterator, Sequence

from repro.analysis.debuglock import make_lock
from repro.db.database import Database
from repro.db.errors import RecordNotFoundError
from repro.db.types import Column, ColumnType

TID_INDEX = "tid_idx"

#: Single-tuple mutations a reference relation remembers by tid.  A cache
#: that falls further behind than this is cleared instead.
CHANGE_LOG_SIZE = 4096


class _ChangeLog:
    """The mutation version plus the tids of the latest mutations.

    One entry per single-tuple insert or delete, each bumping the version
    by one, so the ``i``-th newest tid is the change that made version
    ``version - i``.  A bulk load bumps the version past what the log
    remembers.
    """

    __slots__ = ("version", "_tids", "_lock")

    def __init__(self) -> None:
        self.version = 0
        self._tids: deque[int] = deque(maxlen=CHANGE_LOG_SIZE)
        self._lock = make_lock("ReferenceTable._changes")

    def record(self, tid: int) -> None:
        """Log one single-tuple mutation of ``tid``."""
        with self._lock:
            self._tids.append(tid)
            self.version += 1

    def forget(self, mutations: int) -> None:
        """Count ``mutations`` the log does not itemise (a bulk load)."""
        if mutations:
            with self._lock:
                self._tids.clear()
                self.version += mutations

    def since(self, version: int) -> list[int] | None:
        """Tids changed after ``version``; None when the log lost some."""
        with self._lock:
            behind = self.version - version
            if not 0 <= behind <= len(self._tids):
                return None
            return list(islice(reversed(self._tids), behind))


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
        self._changes = _ChangeLog()

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
        table._changes = _ChangeLog()
        return table

    @property
    def version(self) -> int:
        """Bumped on every insert/delete; cache layers watch this."""
        return self._changes.version

    def changed_since(self, version: int) -> list[int] | None:
        """Tids inserted or deleted since ``version``, newest first.

        None when the change log no longer reaches back that far (more
        than :data:`CHANGE_LOG_SIZE` mutations, or a bulk :meth:`load`
        since): a cache that far behind must be emptied.
        """
        return self._changes.since(version)

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
        self._changes.record(tid)

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
            self._changes.forget(len(self.relation) - stored_before)

    def fetch(self, tid: int) -> tuple[str | None, ...]:
        """Fetch the attribute values of tuple ``tid`` via the tid index."""
        row = self.relation.index_get(TID_INDEX, tid)
        return row[1:]

    def delete(self, tid: int) -> tuple[str | None, ...]:
        """Remove tuple ``tid``; returns its attribute values."""
        rid = self.relation.find_rid(TID_INDEX, tid)
        values = self.relation.fetch(rid)[1:]
        self.relation.delete(rid)
        self._changes.record(tid)
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
