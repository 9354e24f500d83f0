"""Query-side access to a built ETI relation.

All lookups go through the clustered index on ``[QGram, Coordinate,
Column]``.  The number of ETI lookups per input tuple, one of the paper's
efficiency metrics (§4.4), is counted per query
(``MatchStats.eti_lookups``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.errors import RecordNotFoundError
from repro.db.relation import Relation
from repro.eti.schema import ETI_INDEX


@dataclass(frozen=True)
class EtiEntry:
    """One ETI tuple: frequency plus tid-list (None for stop q-grams)."""

    qgram: str
    coordinate: int
    column: int
    frequency: int
    tid_list: list[int] | None

    @property
    def is_stop_qgram(self) -> bool:
        return self.tid_list is None


class EtiIndex:
    """Exact-match lookups against the ETI's clustered index."""

    def __init__(self, relation: Relation) -> None:
        self.relation = relation

    def __len__(self) -> int:
        return len(self.relation)

    def lookup(self, qgram: str, coordinate: int, column: int) -> EtiEntry | None:
        """Fetch the ETI tuple for ``(qgram, coordinate, column)`` or None."""
        try:
            row = self.relation.index_get(ETI_INDEX, (qgram, coordinate, column))
        except RecordNotFoundError:
            return None
        return EtiEntry(*row)  # the ETI's columns, in EtiEntry's field order

    def stats(self) -> dict[str, int]:
        """Index-level statistics for reporting."""
        index_stats = self.relation.index_stats(ETI_INDEX)
        return {
            "rows": len(self.relation),
            "pages": self.relation.num_pages,
            "index_entries": index_stats["entries"],
            "index_height": index_stats["height"],
        }
