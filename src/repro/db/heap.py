"""Heap files: unordered collections of records over the buffer pool.

A heap file owns a contiguous, growable set of pages from one buffer pool.
Records are addressed by :class:`RecordId` (page number within the file plus
slot).  Inserts go to the last page when it has room, falling back to
allocating a new page — the append-mostly pattern the ETI build relies on.
An update rewrites the record in its own slot when the page has room for
the new size (:meth:`HeapFile.update`), so the record id stays stable;
only a record whose page cannot absorb it is relocated (deleted, then
inserted).  "Room" counts a page's dead bytes (:attr:`Page.dead_bytes`):
a page compacts itself before it refuses a write, so a page is left
behind only when its live bytes really fill it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.db.errors import PageFullError, RecordNotFoundError
from repro.db.page import MAX_RECORD_SIZE
from repro.db.pager import BufferPool


@dataclass(frozen=True, order=True)
class RecordId:
    """Address of a record: page index within the heap file, plus slot."""

    page_index: int
    slot: int


class HeapFile:
    """A growable bag of byte records."""

    def __init__(self, pool: BufferPool) -> None:
        self.pool = pool
        self._page_numbers: list[int] = []
        self._record_count = 0

    def __len__(self) -> int:
        return self._record_count

    @property
    def num_pages(self) -> int:
        return len(self._page_numbers)

    @property
    def dead_bytes(self) -> int:
        """Deleted records' bytes still held on this file's pages."""
        get_page = self.pool.get_page
        return sum(get_page(page_no).dead_bytes for page_no in self._page_numbers)

    def insert(self, record: bytes) -> RecordId:
        """Store ``record`` and return its id."""
        if len(record) > MAX_RECORD_SIZE:
            raise PageFullError(
                f"record of {len(record)} bytes exceeds page capacity"
            )
        if self._page_numbers:
            last_index = len(self._page_numbers) - 1
            page = self.pool.get_page(self._page_numbers[last_index])
            if page.can_fit(record):
                slot = page.insert(record)
                self._record_count += 1
                return RecordId(last_index, slot)
        page_no = self.pool.allocate_page()
        self._page_numbers.append(page_no)
        page = self.pool.get_page(page_no)
        slot = page.insert(record)
        self._record_count += 1
        return RecordId(len(self._page_numbers) - 1, slot)

    def read(self, rid: RecordId) -> bytes:
        """Fetch the record stored at ``rid``."""
        page = self.pool.get_page(self._resolve(rid))
        return page.read(rid.slot)

    def update(self, rid: RecordId, record: bytes) -> RecordId:
        """Replace the record at ``rid``; returns where it now lives.

        The record is rewritten in place, keeping ``rid``, whenever its
        page can absorb the size change, compacting itself if need be
        (:meth:`Page.update`); otherwise it is deleted and inserted like a
        new record, and the new id is returned.
        """
        if len(record) > MAX_RECORD_SIZE:
            raise PageFullError(
                f"record of {len(record)} bytes exceeds page capacity"
            )
        page = self.pool.get_page(self._resolve(rid))
        if page.update(rid.slot, record):
            return rid
        self.delete(rid)
        return self.insert(record)

    def delete(self, rid: RecordId) -> None:
        """Delete the record at ``rid``."""
        page = self.pool.get_page(self._resolve(rid))
        page.delete(rid.slot)
        self._record_count -= 1

    def scan(self) -> Iterator[tuple[RecordId, bytes]]:
        """Yield ``(rid, record)`` for every live record, in page order."""
        for page_index, page_no in enumerate(self._page_numbers):
            page = self.pool.get_page(page_no)
            for slot, record in page.records():
                yield RecordId(page_index, slot), record

    def _resolve(self, rid: RecordId) -> int:
        if not 0 <= rid.page_index < len(self._page_numbers):
            raise RecordNotFoundError(f"no page index {rid.page_index} in heap file")
        return self._page_numbers[rid.page_index]
