"""External merge sort.

The paper builds the ETI by running "select QGram, Coordinate, Column, Tid
from pre-ETI order by QGram, Coordinate, Column, Tid" — a sort whose input
is usually larger than main memory (the ETI builder streams the pre-ETI
rows straight in).  This module implements the textbook two-phase algorithm the
database system would use: bounded-memory *run generation* followed by a
k-way *merge* driven by a heap.

Runs are spilled to temporary files using a small length-prefixed pickle
framing, so sorting really is external — memory usage is bounded by
``memory_limit`` rows regardless of input size.
"""

from __future__ import annotations

import heapq
import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Iterator

DEFAULT_MEMORY_LIMIT = 100_000


@dataclass
class SortStats:
    """Accounting for one external sort."""

    rows_in: int = 0
    runs: int = 0
    spilled_rows: int = 0
    merge_passes: int = 0


class _RunWriter:
    """Append rows to a temp file as length-prefixed pickles."""

    def __init__(self, directory: str | None) -> None:
        fd, self.path = tempfile.mkstemp(prefix="repro-sortrun-", dir=directory)
        self._file = os.fdopen(fd, "wb")

    def write_rows(self, rows: Iterable[Any]) -> None:
        for row in rows:
            payload = pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL)
            self._file.write(len(payload).to_bytes(4, "little"))
            self._file.write(payload)

    def close(self) -> None:
        self._file.close()


def _read_run(path: str) -> Iterator[Any]:
    with open(path, "rb") as run_file:
        while True:
            header = run_file.read(4)
            if not header:
                return
            length = int.from_bytes(header, "little")
            yield pickle.loads(run_file.read(length))
    # Caller removes the file after the merge finishes.


def external_sort(
    rows: Iterable[Any],
    key: Callable[[Any], Any] = lambda row: row,
    memory_limit: int = DEFAULT_MEMORY_LIMIT,
    tmp_dir: str | None = None,
    stats: SortStats | None = None,
) -> Generator[Any, None, None]:
    """Yield ``rows`` in ascending ``key`` order using bounded memory.

    ``memory_limit`` is the maximum number of rows held in memory at once.
    If the input fits in one run, no temp files are created.  The sort is
    stable across runs (ties resolve in input order) because the merge heap
    breaks key ties by run sequence number.
    """
    if memory_limit < 2:
        # Argument validation: a bad limit is a caller bug, so ValueError
        # is the narrowest correct type, not a DatabaseError.
        raise ValueError(  # reprolint: disable=exception-taxonomy
            "memory_limit must be at least 2 rows"
        )
    if stats is None:
        stats = SortStats()

    run_paths: list[str] = []
    buffer: list[Any] = []
    try:
        for row in rows:
            stats.rows_in += 1
            buffer.append(row)
            if len(buffer) >= memory_limit:
                buffer.sort(key=key)
                writer = _RunWriter(tmp_dir)
                writer.write_rows(buffer)
                writer.close()
                run_paths.append(writer.path)
                stats.runs += 1
                stats.spilled_rows += len(buffer)
                buffer = []

        buffer.sort(key=key)
        if not run_paths:
            stats.runs = 1 if buffer else 0
            yield from buffer
            return

        stats.runs += 1
        stats.merge_passes = 1
        streams: list[Iterator[Any]] = [_read_run(path) for path in run_paths]
        streams.append(iter(buffer))
        yield from _merge(streams, key)
    finally:
        for path in run_paths:
            try:
                os.remove(path)
            except OSError:
                pass


def _merge(streams: list[Iterator[Any]], key: Callable[[Any], Any]) -> Iterator[Any]:
    """K-way merge of individually sorted streams."""
    heap: list[tuple[Any, int, Any, Iterator[Any]]] = []
    for seq, stream in enumerate(streams):
        for row in stream:
            heap.append((key(row), seq, row, stream))
            break
    heapq.heapify(heap)
    while heap:
        _, seq, row, stream = heapq.heappop(heap)
        yield row
        for nxt in stream:
            heapq.heappush(heap, (key(nxt), seq, nxt, stream))
            break
