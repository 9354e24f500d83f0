"""Building the ETI from a reference relation (§4.2).

The build is the paper's sort-based, out-of-core pipeline, run as one
stream.  The ETI-query is a GROUP BY over ``(QGram, Coordinate, Column)``,
so the pre-ETI is combined by key while the sort runs are cut:

1. *run phase*: scan the reference relation; sign each distinct column-i
   token ``t`` once per build, and for every tuple ``r`` holding ``t`` and
   every signature coordinate ``(j, s)`` of ``t`` append ``r`` to key
   ``(s, j, i)``'s tid-list in the run held in memory.  Once
   ``sort_memory_limit`` postings are held (checked between tuples), the
   run is sorted by key and spilled to a temp file as one
   ``((s, j, i), tids)`` chunk per key; the last run stays in memory.
2. *write phase*: merge the runs — the ETI-query's ``ORDER BY QGram,
   Coordinate, Column`` — concatenate each key's chunks into its tid-list
   and sort it (the reference scan is heap order, not always tid order),
   form ETI tuples ``[s, j, i, frequency, tid-list]`` (tid-lists above the
   stop-q-gram threshold stored as NULL), append them to the ETI heap in
   that order, and bulk-load the clustered B+-tree index on ``[QGram,
   Coordinate, Column]`` from the keys collected on the way.

Deviation from the paper: the pre-ETI is never materialized as a relation.
The paper does so that a stock DBMS can run the ETI-query; here the sort
runs are the only intermediate copy an out-of-core build needs,
and a dropped relation's pages are never reclaimed by this engine — a
materialized pre-ETI was 72 % of every persisted warehouse.  The ordering
semantics and the memory bound are the paper's: the all-in-main-memory
alternative is exactly what it rules out ("the combined size of all
tid-lists is usually larger than the amount of available main memory"),
and ``sort_memory_limit`` bounds the postings held in memory during run
generation.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from contextlib import closing
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator

from repro.core.config import MatchConfig
from repro.core.minhash import MinHasher
from repro.core.reference import ReferenceTable
from repro.core.tokens import tokenize
from repro.db.database import Database
from repro.db.errors import PageFullError
from repro.db.exsort import SortRuns, SortStats
from repro.db.page import MAX_RECORD_SIZE
from repro.db.relation import Relation
from repro.db.types import Row
from repro.eti.index import EtiIndex
from repro.eti.schema import ETI_INDEX, ETI_KEY, eti_columns
from repro.eti.signature import signature_entries
from repro.obs.tracing import trace_span

EtiKey = tuple[str, int, int]
"""``(qgram, coordinate, column)``: the ETI's clustered key."""
Chunk = tuple[EtiKey, list[int]]
"""One run's tid-list of one key: the rows the runs hold and the merge yields."""

_KEY_OF = itemgetter(0)


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
        if sort_memory_limit < 2:
            raise ValueError("sort_memory_limit must be at least 2 postings")
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
        eti = self.db.create_relation(eti_name, eti_columns())
        eti.create_index(ETI_INDEX, list(ETI_KEY), unique=True)
        built = False
        try:
            with SortRuns(stats=stats.sort) as runs:
                runs_ctx = trace_span("eti.builder.runs")
                with runs_ctx:
                    tail = self._generate_runs(reference, runs, stats)
                    chunks = runs.merge(tail, _KEY_OF)
                runs_ctx.annotate(pre_eti_rows=stats.pre_eti_rows, runs=stats.sort.runs)
                stats.runs_seconds = time.perf_counter() - started
                write_ctx = trace_span("eti.builder.write")
                with write_ctx, closing(chunks):
                    self._write(eti, self._eti_rows(chunks, stats))
                write_ctx.annotate(eti_rows=stats.eti_rows, tid_entries=stats.tid_entries)
            built = True
        finally:
            if not built:
                self.db.drop_relation(eti_name)
        stats.elapsed_seconds = time.perf_counter() - started
        stats.write_seconds = stats.elapsed_seconds - stats.runs_seconds
        return EtiIndex(eti), stats

    def _generate_runs(
        self, reference: ReferenceTable, runs: SortRuns, stats: BuildStats
    ) -> list[Chunk]:
        """Scan the reference into sorted runs of chunks; returns the last run.

        The pre-ETI is combined as it is generated: each ``(column, token)``
        is signed once per build, and each posting ``[s, j, i, r]`` appends
        ``r`` to key ``(s, j, i)``'s tid-list in the run held in memory.
        Once ``sort_memory_limit`` postings are held, the run is spilled in
        key order.  Runs are cut between tuples only, so a tuple's postings
        share one run, and when two tokens of a tuple share a key, the
        second finds the tid already last in the list and adds nothing (the
        paper's tid-list holds each tuple once).
        """
        hasher, config, limit = self.hasher, self.config, self.sort_memory_limit
        # Per column: token -> its ETI keys.  As large as the vocabulary,
        # like the frequency cache, and dropped with the build.
        keys_of: defaultdict[int, dict[str, tuple[EtiKey, ...]]] = defaultdict(dict)
        run: dict[EtiKey, list[int]] = {}
        held = 0  # postings generated into ``run``, before deduplication
        for tid, values in reference.scan():
            stats.reference_tuples += 1
            for column, value in enumerate(values):
                memo = keys_of[column]
                for token in dict.fromkeys(tokenize(value)):
                    keys = memo.get(token)
                    if keys is None:
                        keys = memo[token] = tuple(
                            (entry.gram, entry.coordinate, column)
                            for entry in signature_entries(token, hasher, config)
                        )
                    held += len(keys)
                    for key in keys:
                        tids = run.get(key)
                        if tids is None:
                            run[key] = [tid]
                        elif tids[-1] != tid:
                            tids.append(tid)
            if held >= limit:
                runs.spill(self._chunks(run, held, stats))
                run, held = {}, 0
        return self._chunks(run, held, stats)

    @staticmethod
    def _chunks(
        run: dict[EtiKey, list[int]], postings: int, stats: BuildStats
    ) -> list[Chunk]:
        """One run's ``(key, tids)`` chunks in key order."""
        stats.pre_eti_rows += postings
        stats.sort.rows_in += len(run)
        return sorted(run.items(), key=_KEY_OF)

    def _eti_rows(
        self, chunks: Iterable[Chunk], stats: BuildStats
    ) -> Iterator[Row]:
        """Concatenate each key's chunks into an ETI row, counting as they go.

        A tid appears once per key (deduplicated within its tuple, and a
        tuple never spans runs), so sorting the concatenation is all it
        takes; it is one linear pass when the scan was in tid order.
        """
        threshold = self.config.stop_qgram_threshold
        for key, group in groupby(chunks, key=_KEY_OF):
            tids = next(group)[1]
            for _, more in group:
                tids.extend(more)
            tids.sort()
            frequency = len(tids)
            stats.eti_rows += 1
            if frequency > threshold:
                stats.stop_qgrams += 1
                yield (*key, frequency, None)
            else:
                stats.max_tid_list = max(stats.max_tid_list, frequency)
                stats.tid_entries += frequency
                yield (*key, frequency, tids)

    def _write(self, eti: Relation, rows: Iterator[Row]) -> None:
        """Append the ETI rows in key order; the index is bulk-loaded after."""
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
            key=(failed[0], failed[1], failed[2]),
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
