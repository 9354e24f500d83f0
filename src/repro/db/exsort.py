"""External merge sort, in its two textbook halves.

The paper builds the ETI by running "select QGram, Coordinate, Column, Tid
from pre-ETI order by QGram, Coordinate, Column, Tid" — a sort whose input
is usually larger than main memory.  This module implements the two-phase
algorithm the database system would use: bounded-memory *run generation*
followed by a k-way *merge* driven by a heap.

:class:`SortRuns` is the two halves: :meth:`SortRuns.spill` writes one
sorted run to a temporary file (a small length-prefixed pickle framing) and
:meth:`SortRuns.merge` streams every spilled run plus an in-memory tail
back in key order.  The ETI builder cuts the runs itself (the pre-ETI
already grouped by key, at most ``sort_memory_limit`` postings held), so
memory is bounded regardless of the reference relation's size.
"""

from __future__ import annotations

import heapq
import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Generator


@dataclass
class SortStats:
    """Accounting for one external sort.

    ``rows_in`` and ``spilled_rows`` count the rows handed to the sort; for
    an ETI build those are chunk rows (one per ETI key per run), not
    postings.
    """

    rows_in: int = 0
    runs: int = 0
    spilled_rows: int = 0
    merge_passes: int = 0


class SortRuns:
    """The sorted runs of one external sort, spilled to temporary files.

    Use it as a context manager: leaving the ``with`` block removes every
    run file, including one whose write failed part-way.
    """

    def __init__(self, tmp_dir: str | None = None, stats: SortStats | None = None) -> None:
        self.tmp_dir = tmp_dir
        self.stats = stats if stats is not None else SortStats()
        self.paths: list[str] = []

    def __enter__(self) -> SortRuns:
        return self

    def __exit__(self, *exc_info: object) -> None:
        for path in self.paths:
            try:
                os.remove(path)
            except OSError:
                pass

    def spill(self, rows: list[Any]) -> None:
        """Write ``rows``, already in key order, as one run file."""
        fd, path = tempfile.mkstemp(prefix="repro-sortrun-", dir=self.tmp_dir)
        # Recorded before the first byte, so a half-written run is removed too.
        self.paths.append(path)
        with os.fdopen(fd, "wb") as run_file:
            for row in rows:
                payload = pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL)
                run_file.write(len(payload).to_bytes(4, "little"))
                run_file.write(payload)
        self.stats.runs += 1
        self.stats.spilled_rows += len(rows)

    def merge(
        self, tail: list[Any], key: Callable[[Any], Any]
    ) -> Generator[Any, None, None]:
        """The spilled runs and ``tail`` (sorted, in memory) in key order.

        Key ties resolve in run order, spilled runs first and ``tail`` last,
        so a sort whose runs were cut in input order is stable.  The stats
        count ``tail`` as a run now; the files are opened on the first pull.
        """
        self.stats.runs += 1 if tail else 0
        if self.paths:
            self.stats.merge_passes = 1
        return self._merged(tail, key)

    def _merged(
        self, tail: list[Any], key: Callable[[Any], Any]
    ) -> Generator[Any, None, None]:
        streams = [_read_run(path) for path in self.paths]
        try:
            yield from heapq.merge(*streams, tail, key=key)
        finally:
            for stream in streams:
                stream.close()


def _read_run(path: str) -> Generator[Any, None, None]:
    with open(path, "rb") as run_file:
        while True:
            header = run_file.read(4)
            if not header:
                return
            length = int.from_bytes(header, "little")
            yield pickle.loads(run_file.read(length))
