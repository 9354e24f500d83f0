"""Slotted pages.

Each page is a fixed-size byte buffer laid out in the classic slotted-page
format: a header, a slot directory growing from the front, and record data
growing from the back.  Records never span pages; callers (the heap file)
are responsible for routing oversized records to fresh pages or rejecting
them.

Layout::

    [num_slots: u16][free_end: u16][slot 0][slot 1]... ...[data][data]
    slot = [offset: u16][length: u16]

A deleted slot has offset 0 — no live record can start inside the header,
so the marker never collides with a genuinely empty record.

A record can be rewritten in place (:meth:`Page.update`): it keeps its
slot and its end, and the data below it slides by the size difference,
so the free gap absorbs a growth and takes back a shrink.  Nothing else
reclaims space: a deleted record's bytes stay where they are until the
page is rewritten, and no update compacts the page.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.db.errors import PageFullError, RecordNotFoundError

PAGE_SIZE = 8192

_HEADER = struct.Struct("<HH")
_SLOT = struct.Struct("<HH")
_HEADER_SIZE = _HEADER.size
_SLOT_SIZE = _SLOT.size

# Largest record a page can hold: full page minus header and one slot.
MAX_RECORD_SIZE = PAGE_SIZE - _HEADER_SIZE - _SLOT_SIZE


class Page:
    """A single slotted page over a ``bytearray`` buffer."""

    __slots__ = ("data", "dirty")

    def __init__(self, data: bytes | bytearray | None = None) -> None:
        if data is None:
            self.data = bytearray(PAGE_SIZE)
            self._write_header(0, PAGE_SIZE)
        else:
            if len(data) != PAGE_SIZE:
                raise ValueError(f"page buffer must be {PAGE_SIZE} bytes")
            self.data = bytearray(data)
        self.dirty = False

    def _write_header(self, num_slots: int, free_end: int) -> None:
        _HEADER.pack_into(self.data, 0, num_slots, free_end % 65536)

    def _read_header(self) -> tuple[int, int]:
        num_slots, free_end = _HEADER.unpack_from(self.data, 0)
        # free_end == 0 encodes PAGE_SIZE (a fresh page) since the field
        # is 16 bits and PAGE_SIZE == 65536 would not fit; with an 8 KiB
        # page this wrap never triggers, but keep the decode symmetric.
        if free_end == 0 and num_slots == 0:
            free_end = PAGE_SIZE
        return num_slots, free_end

    @property
    def num_slots(self) -> int:
        """Number of slot directory entries (including deleted slots)."""
        return self._read_header()[0]

    @property
    def free_space(self) -> int:
        """Bytes available for one more record (including its slot entry)."""
        num_slots, free_end = self._read_header()
        used_front = _HEADER_SIZE + num_slots * _SLOT_SIZE
        gap = free_end - used_front
        return max(0, gap - _SLOT_SIZE)

    def can_fit(self, record: bytes) -> bool:
        """True iff ``record`` plus its slot entry fits in free space."""
        return len(record) <= self.free_space

    def insert(self, record: bytes) -> int:
        """Store ``record`` and return its slot number."""
        if len(record) > MAX_RECORD_SIZE:
            raise PageFullError(
                f"record of {len(record)} bytes exceeds max {MAX_RECORD_SIZE}"
            )
        if not self.can_fit(record):
            raise PageFullError("page cannot fit record")
        num_slots, free_end = self._read_header()
        offset = free_end - len(record)
        self.data[offset:free_end] = record
        slot_pos = _HEADER_SIZE + num_slots * _SLOT_SIZE
        _SLOT.pack_into(self.data, slot_pos, offset, len(record))
        self._write_header(num_slots + 1, offset)
        self.dirty = True
        return num_slots

    def read(self, slot: int) -> bytes:
        """Return the record stored in ``slot``."""
        offset, length = self._slot_entry(slot)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} is deleted")
        return bytes(self.data[offset : offset + length])

    def update(self, slot: int, record: bytes) -> bool:
        """Rewrite the record in ``slot`` in place; False if it cannot grow.

        The record keeps its slot number and its end offset.  A size
        change moves the data between the free gap and the record in one
        slice, and shifts the offsets of the slots stored there.  Returns
        False, leaving the page untouched, only when the free gap is
        smaller than the growth.
        """
        if len(record) > MAX_RECORD_SIZE:
            raise PageFullError(
                f"record of {len(record)} bytes exceeds max {MAX_RECORD_SIZE}"
            )
        offset, length = self._slot_entry(slot)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} is deleted")
        num_slots, free_end = self._read_header()
        directory_end = _HEADER_SIZE + num_slots * _SLOT_SIZE
        growth = len(record) - length
        if growth > free_end - directory_end:
            return False
        data = self.data
        end = offset + length
        start = end - len(record)
        if growth:
            data[free_end - growth : offset - growth] = data[free_end:offset]
            # Live records ending at or below this one's start moved.
            directory_format = f"<{2 * num_slots}H"
            directory = list(struct.unpack_from(directory_format, data, _HEADER_SIZE))
            for at in range(0, 2 * num_slots, 2):
                other_offset = directory[at]
                if other_offset and other_offset + directory[at + 1] <= offset:
                    directory[at] = other_offset - growth
            directory[2 * slot : 2 * slot + 2] = (start, len(record))
            struct.pack_into(directory_format, data, _HEADER_SIZE, *directory)
            self._write_header(num_slots, free_end - growth)
        data[start:end] = record
        self.dirty = True
        return True

    def delete(self, slot: int) -> None:
        """Mark ``slot`` deleted; its bytes stay where they are."""
        offset, _ = self._slot_entry(slot)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} already deleted")
        slot_pos = _HEADER_SIZE + slot * _SLOT_SIZE
        _SLOT.pack_into(self.data, slot_pos, 0, 0)
        self.dirty = True

    def validate(self) -> list[str]:
        """Structural problems with the slotted layout (empty list = sound).

        Checks the invariants the mutation methods maintain: the slot
        directory and the data area must not overlap, and every live slot
        must point inside the data area.  Used by ``repro fsck`` on pages
        whose checksum provenance is unknown.
        """
        problems: list[str] = []
        num_slots, free_end = self._read_header()
        front = _HEADER_SIZE + num_slots * _SLOT_SIZE
        if front > PAGE_SIZE:
            return [f"slot directory overruns the page ({num_slots} slots)"]
        if not front <= free_end <= PAGE_SIZE:
            problems.append(
                f"free_end {free_end} outside [{front}, {PAGE_SIZE}]"
            )
            return problems
        for slot in range(num_slots):
            offset, length = _SLOT.unpack_from(
                self.data, _HEADER_SIZE + slot * _SLOT_SIZE
            )
            if offset == 0:
                continue  # deleted
            if offset < free_end or offset + length > PAGE_SIZE:
                problems.append(
                    f"slot {slot} record [{offset}, {offset + length}) "
                    f"outside data area [{free_end}, {PAGE_SIZE}]"
                )
        return problems

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot, record)`` for every live record on the page."""
        num_slots, _ = self._read_header()
        for slot in range(num_slots):
            offset, length = _SLOT.unpack_from(
                self.data, _HEADER_SIZE + slot * _SLOT_SIZE
            )
            if offset:
                yield slot, bytes(self.data[offset : offset + length])

    def _slot_entry(self, slot: int) -> tuple[int, int]:
        num_slots, _ = self._read_header()
        if not 0 <= slot < num_slots:
            raise RecordNotFoundError(f"slot {slot} out of range (have {num_slots})")
        return _SLOT.unpack_from(self.data, _HEADER_SIZE + slot * _SLOT_SIZE)
