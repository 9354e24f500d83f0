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

Live records lie in slot order from the page end down: a higher slot
number sits at a lower offset, and no two live records overlap
(:meth:`Page.validate` checks it).  Every mutation keeps that order, so
the records a size change moves are exactly the live records in the
slots after the changed one.

A record can be rewritten in place (:meth:`Page.update`): it keeps its
slot and its end, and the records below it slide by the size difference,
so the free gap absorbs a growth and takes back a shrink.  A deleted
record's bytes stay where they are as *dead bytes*
(:attr:`Page.dead_bytes`) until a write needs them: when an insert or a
growth needs more than the free gap, but no more than the gap plus the
dead bytes, the page is compacted first — every live record slides to
the page end in offset order — and the write then proceeds.  Compaction
changes offsets only, never slot numbers, so every record id stays valid.
A deleted slot's directory entry is never reused.
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

# Slot entries holding offset 1 and offset 0xFFFF, length 0.
_OFFSET_ONE = _SLOT.pack(1, 0)
_OFFSET_BITS = _SLOT.pack(0xFFFF, 0)


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
        """Bytes the free gap has for one more record (including its slot
        entry), before any compaction."""
        num_slots, free_end = self._read_header()
        return max(0, _gap(num_slots, free_end) - _SLOT_SIZE)

    @property
    def dead_bytes(self) -> int:
        """Bytes of the data area no live record holds: deleted records'
        bytes, which the next compaction gives back to the free gap."""
        return self._dead_bytes(*self._read_header())

    def can_fit(self, record: bytes) -> bool:
        """True iff ``record`` plus its slot entry fits, compacting if need be."""
        num_slots, free_end = self._read_header()
        need = len(record) + _SLOT_SIZE
        gap = _gap(num_slots, free_end)
        return need <= gap or need <= gap + self._dead_bytes(num_slots, free_end)

    def insert(self, record: bytes) -> int:
        """Store ``record`` and return its slot number."""
        if len(record) > MAX_RECORD_SIZE:
            raise PageFullError(
                f"record of {len(record)} bytes exceeds max {MAX_RECORD_SIZE}"
            )
        num_slots, free_end = self._read_header()
        need = len(record) + _SLOT_SIZE
        gap = _gap(num_slots, free_end)
        if need > gap:
            if need > gap + self._dead_bytes(num_slots, free_end):
                raise PageFullError("page cannot fit record")
            free_end = self._compact(num_slots)
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
        change moves the records below it between the free gap and the
        record in one slice, and shifts the offsets of the slots after
        ``slot``, which are exactly the records moved.  A growth past the
        free gap compacts the page first when its dead bytes make up the
        difference.  Returns False, leaving the page untouched, only when
        the gap plus the dead bytes is smaller than the growth.
        """
        if len(record) > MAX_RECORD_SIZE:
            raise PageFullError(
                f"record of {len(record)} bytes exceeds max {MAX_RECORD_SIZE}"
            )
        offset, length = self._slot_entry(slot)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} is deleted")
        num_slots, free_end = self._read_header()
        growth = len(record) - length
        gap = _gap(num_slots, free_end)
        if growth > gap:
            if growth > gap + self._dead_bytes(num_slots, free_end):
                return False
            free_end = self._compact(num_slots)
            offset, _ = self._slot_entry(slot)
        data = self.data
        end = offset + length
        start = end - len(record)
        if growth:
            data[free_end - growth : offset - growth] = data[free_end:offset]
            self._shift_offsets(slot + 1, num_slots, -growth)
            _SLOT.pack_into(data, _HEADER_SIZE + slot * _SLOT_SIZE, start, len(record))
            self._write_header(num_slots, free_end - growth)
        data[start:end] = record
        self.dirty = True
        return True

    def delete(self, slot: int) -> None:
        """Mark ``slot`` deleted; its bytes stay behind as dead bytes."""
        offset, _ = self._slot_entry(slot)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} already deleted")
        slot_pos = _HEADER_SIZE + slot * _SLOT_SIZE
        _SLOT.pack_into(self.data, slot_pos, 0, 0)
        self.dirty = True

    def validate(self) -> list[str]:
        """Structural problems with the slotted layout (empty list = sound).

        Checks the invariants the mutation methods maintain: the slot
        directory and the data area must not overlap, every live slot
        must point inside the data area, and live records must descend
        with their slot numbers without overlapping each other.  Used by
        ``repro fsck`` on every page.
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
        above: tuple[int, int, int] | None = None  # previous live slot
        for slot in range(num_slots):
            offset, length = _SLOT.unpack_from(
                self.data, _HEADER_SIZE + slot * _SLOT_SIZE
            )
            if offset == 0:
                continue  # deleted
            end = offset + length
            if offset < front:
                problems.append(
                    f"slot {slot} record [{offset}, {end}) overlaps the slot "
                    f"directory [0, {front})"
                )
                continue
            if offset < free_end or end > PAGE_SIZE:
                problems.append(
                    f"slot {slot} record [{offset}, {end}) "
                    f"outside data area [{free_end}, {PAGE_SIZE}]"
                )
                continue
            if above is not None and end > above[1]:
                prior, prior_offset, prior_end = above
                relation = (
                    "overlaps"
                    if max(offset, prior_offset) < min(end, prior_end)
                    else "lies above"
                )
                problems.append(
                    f"slot {slot} record [{offset}, {end}) {relation} slot "
                    f"{prior} record [{prior_offset}, {prior_end})"
                )
            above = (slot, offset, end)
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

    def _shift_offsets(self, first: int, last: int, delta: int) -> None:
        """Add ``delta`` to the offsets of the live slots in ``[first, last)``.

        The slot entries are read as one little-endian integer, a 32-bit
        field per entry with the offset in its low 16 bits, and shifted by
        a few big-integer operations instead of a Python loop over the
        slots.  A deleted entry (offset 0) is left alone, and no carry or
        borrow crosses a field, since every shifted offset stays inside
        the page.
        """
        if first >= last:
            return
        at = _HEADER_SIZE + first * _SLOT_SIZE
        end = _HEADER_SIZE + last * _SLOT_SIZE
        fields = int.from_bytes(self.data[at:end], "little")
        offset_bits = int.from_bytes(_OFFSET_BITS * (last - first), "little")
        ones = int.from_bytes(_OFFSET_ONE * (last - first), "little")
        # Bit 16 of ``offset + 0xFFFF`` is set exactly when the offset is not 0.
        live = (((fields & offset_bits) + offset_bits) >> 16) & ones
        self.data[at:end] = (fields + delta * live).to_bytes(end - at, "little")

    def _dead_bytes(self, num_slots: int, free_end: int) -> int:
        # A deleted slot's entry is (0, 0), so the lengths sum live bytes.
        entries = struct.unpack_from(f"<{2 * num_slots}H", self.data, _HEADER_SIZE)
        return PAGE_SIZE - free_end - sum(entries[1::2])

    def _compact(self, num_slots: int) -> int:
        """Slide every live record to the page end, in offset order.

        Slots keep their numbers and records their relative order; the
        dead bytes join the free gap.  Returns the new ``free_end``.
        """
        data = self.data
        entries_format = f"<{2 * num_slots}H"
        entries = list(struct.unpack_from(entries_format, data, _HEADER_SIZE))
        live = sorted(
            (at for at in range(0, 2 * num_slots, 2) if entries[at]),
            key=entries.__getitem__,
            reverse=True,
        )
        pieces = []
        free_end = PAGE_SIZE
        for at in live:
            offset = entries[at]
            length = entries[at + 1]
            pieces.append(data[offset : offset + length])
            free_end -= length
            entries[at] = free_end
        pieces.reverse()
        data[free_end:PAGE_SIZE] = b"".join(pieces)
        struct.pack_into(entries_format, data, _HEADER_SIZE, *entries)
        self._write_header(num_slots, free_end)
        return free_end


def _gap(num_slots: int, free_end: int) -> int:
    """Bytes between the slot directory's end and the data area."""
    return free_end - _HEADER_SIZE - num_slots * _SLOT_SIZE
