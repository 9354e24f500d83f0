"""Building the ETI from a reference relation (§4.2).

The build is the paper's sort-based, out-of-core pipeline, run as one
stream:

1. *run phase*: scan the reference relation; for every column-i token
   ``t`` of tuple ``r`` and every signature coordinate ``(j, s)`` of ``t``,
   feed the pre-ETI row ``[s, j, i, r]`` to the external merge sort, which
   cuts the stream into sorted runs of at most ``sort_memory_limit`` rows
   (spilled to temp files when there is more than one).
2. *write phase*: merge the runs — the ETI-query's ``ORDER BY QGram,
   Coordinate, Column, Tid`` — group equal ``(QGram, Coordinate, Column)``
   prefixes into ETI tuples ``[s, j, i, frequency, tid-list]`` (tid-lists
   above the stop-q-gram threshold stored as NULL), append them to the ETI
   heap in that order, and bulk-load the clustered B+-tree index on
   ``[QGram, Coordinate, Column]`` from the keys collected on the way.

Deviation from the paper: the pre-ETI is a sorted stream, not a relation.
The paper materializes it so that a stock DBMS can run the ETI-query; here
the sort runs are the only intermediate copy an out-of-core build needs,
and a dropped relation's pages are never reclaimed by this engine — a
materialized pre-ETI was 72 % of every persisted warehouse.  The ordering
semantics and the memory bound are the paper's: the all-in-main-memory
alternative is exactly what it rules out ("the combined size of all
tid-lists is usually larger than the amount of available main memory"),
and `sort_memory_limit` bounds the rows held in memory during the sort.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, groupby, islice
from operator import itemgetter
from typing import Iterable, Iterator

from repro.core.config import MatchConfig
from repro.core.minhash import MinHasher
from repro.core.reference import ReferenceTable
from repro.core.tokens import TupleTokens
from repro.db.database import Database
from repro.db.errors import PageFullError
from repro.db.exsort import SortStats, external_sort
from repro.db.page import MAX_RECORD_SIZE
from repro.db.relation import Relation
from repro.db.types import Row
from repro.eti.index import EtiIndex
from repro.eti.schema import ETI_INDEX, ETI_KEY, eti_columns
from repro.eti.signature import signature_entries
from repro.obs.tracing import trace_span

_ETI_KEY_OF = itemgetter(0, 1, 2)
_TID_OF = itemgetter(3)


class TidListTooLargeError(PageFullError):
    """A q-gram's tid-list does not fit one page, so the ETI cannot be built.

    Records never span pages, so a tid-list at or below the stop-q-gram
    threshold must encode to at most ``MAX_RECORD_SIZE`` bytes.
    ``largest_buildable_threshold`` is the largest ``stop_qgram_threshold``
    under which this reference relation builds: one below the frequency of
    its rarest q-gram whose row is too large.
    """

    def __init__(
        self,
        key: tuple[str, int, int],
        frequency: int,
        encoded_bytes: int,
        largest_buildable_threshold: int,
    ) -> None:
        super().__init__(
            f"tid-list of q-gram {key!r} (frequency {frequency}) encodes to "
            f"{encoded_bytes} bytes, above the page limit of {MAX_RECORD_SIZE}; "
            f"the largest stop_qgram_threshold that builds this relation is "
            f"{largest_buildable_threshold}"
        )
        self.key = key
        self.frequency = frequency
        self.encoded_bytes = encoded_bytes
        self.largest_buildable_threshold = largest_buildable_threshold


@dataclass
class BuildStats:
    """Accounting for one ETI build."""

    reference_tuples: int = 0
    pre_eti_rows: int = 0
    eti_rows: int = 0
    tid_entries: int = 0
    """Total postings stored (sum of tid-list lengths, stop rows excluded)."""
    stop_qgrams: int = 0
    max_tid_list: int = 0
    sort: SortStats = field(default_factory=SortStats)
    runs_seconds: float = 0.0
    """Scan → signatures → sorted-run generation (span ``eti.builder.runs``)."""
    write_seconds: float = 0.0
    """Merge → group → heap append → index bulk load (``eti.builder.write``)."""
    elapsed_seconds: float = 0.0


class EtiBuilder:
    """Builds an ETI relation plus clustered index inside a database."""

    def __init__(
        self,
        db: Database,
        config: MatchConfig,
        hasher: MinHasher | None = None,
        sort_memory_limit: int = 200_000,
    ) -> None:
        self.db = db
        self.config = config
        self.hasher = hasher if hasher is not None else MinHasher(
            config.q, config.signature_size, config.seed
        )
        self.sort_memory_limit = sort_memory_limit

    def build(
        self, reference: ReferenceTable, eti_name: str = "eti"
    ) -> tuple[EtiIndex, BuildStats]:
        """Run the full pipeline; returns the queryable index and stats.

        A build that raises leaves neither a partial ``eti_name`` relation
        in the catalog nor a sort-run file behind, so it can be retried on
        the same database (say with a lower ``stop_qgram_threshold`` after
        :class:`TidListTooLargeError`).
        """
        stats = BuildStats()
        started = time.perf_counter()
        sorted_rows = external_sort(
            self._pre_eti_rows(reference, stats),
            memory_limit=self.sort_memory_limit,
            stats=stats.sort,
        )
        eti = self.db.create_relation(eti_name, eti_columns())
        eti.create_index(ETI_INDEX, list(ETI_KEY), unique=True)
        built = False
        try:
            runs_ctx = trace_span("eti.builder.runs")
            with runs_ctx:
                # The sorter yields nothing until it has consumed its whole
                # input into sorted runs, so pulling the first row *is* the
                # run phase; the merge streams from here on.
                head = list(islice(sorted_rows, 1))
            runs_ctx.annotate(pre_eti_rows=stats.pre_eti_rows, runs=stats.sort.runs)
            stats.runs_seconds = time.perf_counter() - started
            write_ctx = trace_span("eti.builder.write")
            with write_ctx:
                self._write(eti, chain(head, sorted_rows), stats)
            write_ctx.annotate(eti_rows=stats.eti_rows, tid_entries=stats.tid_entries)
            built = True
        finally:
            sorted_rows.close()  # removes the run files of an unfinished merge
            if not built:
                self.db.drop_relation(eti_name)
        stats.elapsed_seconds = time.perf_counter() - started
        stats.write_seconds = stats.elapsed_seconds - stats.runs_seconds
        return EtiIndex(eti), stats

    def _pre_eti_rows(
        self, reference: ReferenceTable, stats: BuildStats
    ) -> Iterator[tuple[str, int, int, int]]:
        """The pre-ETI: one ``(qgram, coordinate, column, tid)`` per posting."""
        hasher, config = self.hasher, self.config
        for tid, values in reference.scan():
            stats.reference_tuples += 1
            tokens = TupleTokens.from_values(values)
            for column in range(tokens.num_columns):
                for token in tokens.column_tokens(column):
                    for entry in signature_entries(token, hasher, config):
                        stats.pre_eti_rows += 1
                        yield (entry.gram, entry.coordinate, column, tid)

    def _eti_rows(
        self, sorted_rows: Iterable[tuple[str, int, int, int]], stats: BuildStats
    ) -> Iterator[Row]:
        """Group the sorted pre-ETI into ETI rows, counting as they go."""
        threshold = self.config.stop_qgram_threshold
        for key, group in groupby(sorted_rows, key=_ETI_KEY_OF):
            # The group arrives tid-sorted; dict.fromkeys dedupes while
            # preserving order (a tuple with two same-column tokens sharing
            # a coordinate gram must appear once per the paper's "list of
            # tids of all reference tuples").
            tids = list(dict.fromkeys(map(_TID_OF, group)))
            frequency = len(tids)
            stats.eti_rows += 1
            if frequency > threshold:
                stats.stop_qgrams += 1
                yield (*key, frequency, None)
            else:
                stats.max_tid_list = max(stats.max_tid_list, frequency)
                stats.tid_entries += frequency
                yield (*key, frequency, tids)

    def _write(
        self,
        eti: Relation,
        sorted_rows: Iterable[tuple[str, int, int, int]],
        stats: BuildStats,
    ) -> None:
        """Append the ETI rows in key order; the index is bulk-loaded after."""
        rows = self._eti_rows(sorted_rows, stats)
        last: deque[Row] = deque(maxlen=1)  # the row insert_many is storing

        def remembering_last() -> Iterator[Row]:
            for row in rows:
                last.append(row)
                yield row

        try:
            # Rows arrive in (qgram, coordinate, column) order, so the bulk
            # load sees sorted unique keys — the clustered-index build of §4.2.
            eti.insert_many(remembering_last())
        except PageFullError:
            if not last or last[0][4] is None:
                raise
            raise self._too_large(eti, last[0], rows) from None

    def _too_large(
        self, eti: Relation, failed: Row, rest: Iterable[Row]
    ) -> TidListTooLargeError:
        """The typed page-wall error for ``failed``, the row that hit it.

        Drains ``rest`` (the rows not yet written) to find the rarest
        q-gram whose row is too large: every threshold below its frequency
        stores that tid-list as NULL and builds.
        """
        encode = eti.schema.encode
        rarest = failed[3]
        for row in rest:
            stored_below = row[4] is not None and row[3] < rarest
            if stored_below and len(encode(row)) > MAX_RECORD_SIZE:
                rarest = row[3]
        return TidListTooLargeError(
            key=_ETI_KEY_OF(failed),
            frequency=failed[3],
            encoded_bytes=len(encode(failed)),
            largest_buildable_threshold=rarest - 1,
        )


def build_eti(
    db: Database,
    reference: ReferenceTable,
    config: MatchConfig,
    hasher: MinHasher | None = None,
    eti_name: str = "eti",
    sort_memory_limit: int = 200_000,
) -> tuple[EtiIndex, BuildStats]:
    """Convenience wrapper around :class:`EtiBuilder`."""
    builder = EtiBuilder(db, config, hasher, sort_memory_limit)
    return builder.build(reference, eti_name=eti_name)
