"""Incremental ETI maintenance when the reference relation changes.

The paper defers this ("Due to space constraints, we do not discuss ETI
maintenance when the reference table changes"); this module supplies the
natural design.  Because the ETI is a standard relation keyed on ``[QGram,
Coordinate, Column]``, inserting or deleting one reference tuple touches
exactly the rows named by that tuple's signature entries:

- *insert*: for every signature coordinate of every token, append the tid
  to the row's tid-list and bump the frequency, creating the row if absent;
  a tid-list crossing the stop-q-gram threshold collapses to NULL.
- *delete*: remove the tid and decrement the frequency; a row whose list
  empties is removed.  Stop q-grams stay stopped even if their frequency
  sinks back below the threshold — their tid-list was discarded and cannot
  be reconstructed without a rebuild.  This is conservative: a stopped
  q-gram only costs recall that the remaining coordinates supply.

Each mutation reads and edits its rows in memory before it writes any of
them, so a tid-list that would outgrow a page raises the builder's typed
:class:`~repro.eti.builder.TidListTooLargeError` with nothing written.
An edit is spliced into the encoded row (:meth:`repro.db.types.Schema.splice`):
the frequency is re-encoded and the key columns are copied as bytes; a
fresh tid past the list's last is appended as one delta behind the
copied list, and any other tid goes in or out of the decoded list,
which is encoded again, with no Python loop over its tids.
Row creation, a row that empties, a list crossing the stop threshold,
and any edit the splice declines decode the row, edit it and encode it
instead.  Rows are then rewritten in place
(:meth:`repro.db.relation.Relation.update_record`, or
:meth:`~repro.db.relation.Relation.update` for a decoded row).

Each tuple names every ``(q-gram, coordinate, column)`` key once, in an
order fixed by its tokens' sorted order: a key two tokens share counts the
tuple once, as the builder counts it, and identical mutations write
identical page files whatever the process's string-hash seed.

Token *weights* can be maintained in lock-step: pass the plain
:class:`~repro.core.weights.TokenFrequencyCache` as ``weights`` and the
maintainer calls its ``add_tuple`` / ``remove_tuple`` on every mutation,
keeping IDF weights exact.  Without it, the cache drifts benignly (unseen
tokens already fall back to column-average weights); heavy churn then
warrants a periodic rebuild, and the maintainer counts both mutations and
un-mirrored weight drift (:attr:`EtiMaintainer.weight_drift`) to make
that decision easy — :attr:`EtiMaintainer.rebuild_hint` turns true once
the mutation count crosses ``rebuild_threshold``.

Crash atomicity: pass the owning :class:`~repro.db.database.Database` as
``database`` and every mutation runs inside one WAL transaction — the
multi-row ETI update, the reference-heap change, and the catalog manifest
commit together, so a crash mid-mutation recovers to the state before or
after the whole tuple, never a half-indexed one.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import nullcontext
from typing import TYPE_CHECKING, ContextManager, Sequence

from repro.core.config import MatchConfig
from repro.core.minhash import MinHasher
from repro.core.reference import TID_INDEX, ReferenceTable
from repro.core.tokens import TupleTokens
from repro.db.errors import RecordNotFoundError
from repro.db.heap import RecordId
from repro.db.page import MAX_RECORD_SIZE
from repro.eti.builder import TidListTooLargeError
from repro.eti.index import EtiIndex
from repro.eti.schema import ETI_INDEX
from repro.eti.signature import signature_entries

if TYPE_CHECKING:
    from repro.core.weights import TokenFrequencyCache
    from repro.db.database import Database

# An ETI row's editable part, ``(frequency, tid_list)``; NULL list = stop q-gram.
_RowState = tuple[int, list[int] | None]
# Touched ETI key -> (stored rid or None, the row now: its encoded record,
# its decoded state, or None when it goes).
_Edits = dict[tuple[str, int, int], tuple[RecordId | None, bytes | _RowState | None]]


class EtiMaintainer:
    """Keeps an ETI consistent with single-tuple reference mutations."""

    def __init__(
        self,
        reference: ReferenceTable,
        eti: EtiIndex,
        config: MatchConfig,
        hasher: MinHasher | None = None,
        weights: "TokenFrequencyCache | None" = None,
        database: "Database | None" = None,
        rebuild_threshold: int | None = None,
    ) -> None:
        self.reference = reference
        self.eti = eti
        self.config = config
        self.hasher = (
            hasher
            if hasher is not None
            else MinHasher(config.q, config.signature_size, config.seed)
        )
        self.weights = weights
        if weights is not None and not (
            hasattr(weights, "add_tuple") and hasattr(weights, "remove_tuple")
        ):
            raise TypeError(
                "weights must support add_tuple/remove_tuple (use the plain "
                "TokenFrequencyCache) or be None"
            )
        if rebuild_threshold is not None and rebuild_threshold < 1:
            raise ValueError("rebuild_threshold must be >= 1 (or None)")
        self.database = database
        self.rebuild_threshold = rebuild_threshold
        self.mutations = 0
        self.weight_drift = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def insert_tuple(self, tid: int, values: Sequence[str | None]) -> None:
        """Add a reference tuple and index all its signature entries.

        Every ETI row the tuple touches is edited in memory first; if one
        would outgrow a page, :class:`TidListTooLargeError` is raised
        before anything is written.  With a ``database`` attached, the
        heap insert and every ETI row it touches commit as one WAL
        transaction.
        """
        with self._transaction():
            edits = self._edits(values, tid, add=True)
            self._check_fits(edits)
            self.reference.insert(tid, values)
            self._write(edits)
            self._account(values, add=True)

    def delete_tuple(self, tid: int) -> tuple[str | None, ...]:
        """Remove a reference tuple and unindex its signature entries.

        With a ``database`` attached, the heap delete and every ETI row it
        touches commit as one WAL transaction.
        """
        with self._transaction():
            values = self.reference.delete(tid)
            self._write(self._edits(values, tid, add=False))
            self._account(values, add=False)
        return values

    def update_tuple(self, tid: int, values: Sequence[str | None]) -> None:
        """Replace a reference tuple's attribute values.

        The ETI rows are edited as a delete followed by an insert, checked
        against the page limit before the first write, and written once.
        With a ``database`` attached this is *one* transaction.
        """
        with self._transaction():
            old = self.reference.relation.index_get(TID_INDEX, tid)[1:]
            edits = self._edits(old, tid, add=False)
            self._edits(values, tid, add=True, edits=edits)
            self._check_fits(edits)
            self.reference.delete(tid)
            self.reference.insert(tid, values)
            self._write(edits)
            self._account(old, add=False)
            self._account(values, add=True)

    @property
    def rebuild_hint(self) -> bool:
        """True once accumulated mutations warrant a from-scratch rebuild.

        Always False without a ``rebuild_threshold``; the hint never
        resets on its own — rebuild, then construct a fresh maintainer.
        """
        return (
            self.rebuild_threshold is not None
            and self.mutations >= self.rebuild_threshold
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _transaction(self) -> ContextManager[None]:
        """One crash-atomic scope per mutation (a no-op without a database)."""
        if self.database is not None:
            return self.database.transaction()
        return nullcontext()

    def _account(self, values: Sequence[str | None], add: bool) -> None:
        """Bookkeeping shared by insert and delete paths."""
        if self.weights is not None:
            if add:
                self.weights.add_tuple(values)
            else:
                self.weights.remove_tuple(values)
        else:
            # No live cache to mirror into: IDF weights drift one tuple
            # further from the stored frequencies.
            self.weight_drift += 1
        self.mutations += 1

    def _entries(self, values: Sequence[str | None]) -> list[tuple[str, int, int]]:
        """The ETI keys of a tuple, each once, tokens in sorted order.

        Two tokens of one column can share an entry (a token of at most
        q characters is its own coordinate-1 entry, which can also be a
        longer token's min-hash q-gram); the builder counts the tuple once
        for it, and so must maintenance.
        """
        tokens = TupleTokens.from_values(values)
        keys: dict[tuple[str, int, int], None] = {}
        for column in range(tokens.num_columns):
            for token in sorted(tokens.column_tokens(column)):
                for entry in signature_entries(token, self.hasher, self.config):
                    keys[entry.gram, entry.coordinate, column] = None
        return list(keys)

    def _edits(
        self,
        values: Sequence[str | None],
        tid: int,
        add: bool,
        edits: _Edits | None = None,
    ) -> _Edits:
        """The ETI rows adding (or removing) ``tid`` leaves, written nowhere yet.

        Maps each touched key to ``(rid, row)``: the row's stored record
        id (None if it has none) and the row after the edit — its encoded
        record when the edit was spliced into it, its new ``(frequency,
        tid_list)`` when it was not, None once the row should not exist.
        An edit applies to the row the previous one left, so a key that
        both halves of an update name is edited twice, as if every edit
        had been written in turn.
        """
        if edits is None:
            edits = {}
        relation = self.eti.relation
        for key in self._entries(values):
            if key in edits:
                rid, row = edits[key]
            else:
                try:
                    rid = relation.find_rid(ETI_INDEX, key)
                except RecordNotFoundError:
                    rid, row = None, None
                else:
                    row = relation.heap.read(rid)
            edits[key] = (rid, self._edit(row, tid, add))
        return edits

    def _edit(
        self, row: bytes | _RowState | None, tid: int, add: bool
    ) -> bytes | _RowState | None:
        """One entry's edit, spliced into the encoded row when it can be.

        A row being created, one crossing the stop threshold, and one
        whose edit the splice declines (a NULL list, a no-op, a list that
        would empty) are edited decoded, by :meth:`_added` / :meth:`_removed`.
        """
        if isinstance(row, bytes):
            schema = self.eti.relation.schema
            frequency = self._frequency(row)
            if not add or frequency < self.config.stop_qgram_threshold:
                frequency = frequency + 1 if add else max(frequency - 1, 0)
                spliced = schema.splice(row, tid, add, {"frequency": frequency})
                if spliced is not None:
                    return spliced
            decoded = schema.decode(row)
            row = (decoded[3], decoded[4])
        return self._added(row, tid) if add else self._removed(row, tid)

    def _frequency(self, record: bytes) -> int:
        """The frequency stored in an encoded ETI row."""
        frequency: int = self.eti.relation.schema.decode(record, 4)[3]
        return frequency

    def _added(self, state: _RowState | None, tid: int) -> _RowState:
        """The row after ``tid`` joins it; a list past the threshold is NULL."""
        if state is None:
            return (1, [tid])
        frequency, tid_list = state
        frequency += 1
        if tid_list is None or frequency > self.config.stop_qgram_threshold:
            return (frequency, None)  # already (or newly) a stop q-gram
        at = bisect_left(tid_list, tid)
        if at == len(tid_list) or tid_list[at] != tid:
            tid_list.insert(at, tid)
        return (frequency, tid_list)

    @staticmethod
    def _removed(state: _RowState | None, tid: int) -> _RowState | None:
        """The row after ``tid`` leaves it; None once it should vanish.

        Stop q-grams keep a NULL list and only their frequency decays.
        """
        if state is None:
            return None  # never indexed (e.g. inserted while already a stop gram)
        frequency, tid_list = state
        frequency = max(frequency - 1, 0)
        if tid_list is None:
            return (frequency, None) if frequency else None
        at = bisect_left(tid_list, tid)
        if at < len(tid_list) and tid_list[at] == tid:
            del tid_list[at]
        return (frequency, tid_list) if tid_list else None

    def _check_fits(self, edits: _Edits) -> None:
        """Raise the typed page-wall error for the first row too large to store.

        A spliced row is measured as it is, a decoded one once encoded.
        """
        encode = self.eti.relation.schema.encode
        for key, (_, state) in edits.items():
            if state is None:
                continue
            record = state if isinstance(state, bytes) else encode((*key, *state))
            if len(record) > MAX_RECORD_SIZE:
                frequency = self._frequency(record)
                raise TidListTooLargeError(
                    key, frequency, len(record),
                    largest_buildable_threshold=frequency - 1,
                )

    def _write(self, edits: _Edits) -> None:
        """Store every edited row: insert, rewrite in place, or delete."""
        relation = self.eti.relation
        for key, (rid, state) in edits.items():
            if state is None:
                if rid is not None:
                    relation.delete(rid)
            elif isinstance(state, bytes):
                assert rid is not None  # spliced from the stored record
                relation.update_record(rid, state)
            elif rid is None:
                relation.insert((*key, *state))
            else:
                relation.update(rid, (*key, *state))
