"""Slotted page behaviour."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.errors import PageFullError, RecordNotFoundError
from repro.db.page import MAX_RECORD_SIZE, PAGE_SIZE, Page


class TestPageBasics:
    def test_fresh_page_empty(self):
        page = Page()
        assert page.num_slots == 0
        assert list(page.records()) == []

    def test_insert_and_read(self):
        page = Page()
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"

    def test_insert_returns_sequential_slots(self):
        page = Page()
        slots = [page.insert(bytes([i])) for i in range(10)]
        assert slots == list(range(10))

    def test_insert_sets_dirty(self):
        page = Page()
        assert not page.dirty
        page.insert(b"x")
        assert page.dirty

    def test_records_yields_all_live(self):
        page = Page()
        payloads = [f"rec{i}".encode() for i in range(5)]
        for p in payloads:
            page.insert(p)
        assert [r for _, r in page.records()] == payloads

    def test_empty_record_allowed(self):
        page = Page()
        slot = page.insert(b"")
        assert page.read(slot) == b""


class TestPageDelete:
    def test_delete_removes_from_records(self):
        page = Page()
        page.insert(b"a")
        slot_b = page.insert(b"b")
        page.insert(b"c")
        page.delete(slot_b)
        assert [r for _, r in page.records()] == [b"a", b"c"]

    def test_read_deleted_raises(self):
        page = Page()
        slot = page.insert(b"a")
        page.delete(slot)
        with pytest.raises(RecordNotFoundError):
            page.read(slot)

    def test_double_delete_raises(self):
        page = Page()
        slot = page.insert(b"a")
        page.delete(slot)
        with pytest.raises(RecordNotFoundError):
            page.delete(slot)

    def test_out_of_range_slot_raises(self):
        page = Page()
        with pytest.raises(RecordNotFoundError):
            page.read(0)
        with pytest.raises(RecordNotFoundError):
            page.read(-1)


class TestPageCapacity:
    def test_oversized_record_rejected(self):
        page = Page()
        with pytest.raises(PageFullError):
            page.insert(b"x" * (MAX_RECORD_SIZE + 1))

    def test_max_record_fits_on_fresh_page(self):
        page = Page()
        slot = page.insert(b"x" * MAX_RECORD_SIZE)
        assert len(page.read(slot)) == MAX_RECORD_SIZE

    def test_free_space_decreases(self):
        page = Page()
        before = page.free_space
        page.insert(b"x" * 100)
        assert page.free_space < before

    def test_page_fills_up(self):
        page = Page()
        inserted = 0
        record = b"y" * 512
        while page.can_fit(record):
            page.insert(record)
            inserted += 1
        assert inserted > 0
        with pytest.raises(PageFullError):
            page.insert(record)

    def test_many_small_records(self):
        page = Page()
        count = 0
        while page.can_fit(b"z"):
            page.insert(b"z")
            count += 1
        # Each record costs 1 byte data + 4 bytes slot.
        assert count > PAGE_SIZE // 10


class TestPageUpdate:
    @staticmethod
    def _page(*records):
        page = Page()
        for record in records:
            page.insert(record)
        return page

    def test_grows_into_the_gap(self):
        page = self._page(b"aaaa", b"bbbb", b"cccc")
        gap_before = page.free_space
        assert page.update(1, b"B" * 40)
        assert [r for _, r in page.records()] == [b"aaaa", b"B" * 40, b"cccc"]
        assert page.free_space == gap_before - 36
        assert page.validate() == []

    def test_shrinks_and_returns_the_space(self):
        page = self._page(b"aaaa", b"b" * 40, b"cccc")
        gap_before = page.free_space
        assert page.update(1, b"bb")
        assert [r for _, r in page.records()] == [b"aaaa", b"bb", b"cccc"]
        assert page.free_space == gap_before + 38
        assert page.validate() == []

    def test_same_size_rewrites_in_place(self):
        page = self._page(b"aaaa", b"bbbb")
        gap_before = page.free_space
        assert page.update(0, b"AAAA")
        assert [r for _, r in page.records()] == [b"AAAA", b"bbbb"]
        assert page.free_space == gap_before

    def test_shifts_records_below_deleted_slots(self):
        page = self._page(b"aaaa", b"bbbb", b"cccc", b"dddd", b"", b"eeee")
        page.delete(2)
        page.delete(3)
        assert page.update(1, b"B" * 25)
        assert page.update(0, b"A")
        assert dict(page.records()) == {
            0: b"A", 1: b"B" * 25, 4: b"", 5: b"eeee"
        }
        assert page.update(5, b"E" * 9)
        assert page.update(4, b"four")
        assert dict(page.records()) == {
            0: b"A", 1: b"B" * 25, 4: b"four", 5: b"E" * 9
        }
        assert page.validate() == []

    def test_refuses_growth_past_the_gap(self):
        page = Page()
        page.insert(b"a" * 100)
        page.insert(b"b" * (page.free_space - 10))
        before = bytes(page.data)
        gap = page.free_space + 4  # no new slot entry is needed
        assert not page.update(0, b"a" * (100 + gap + 1))
        assert bytes(page.data) == before
        assert page.update(0, b"a" * (100 + gap))
        assert page.read(0) == b"a" * (100 + gap)
        assert page.validate() == []

    def test_keeps_every_slot_number(self):
        page = self._page(*(bytes([i]) * (i + 1) for i in range(12)))
        for slot in range(12):
            page.update(slot, bytes([100 + slot]) * (30 - 2 * slot))
        assert page.num_slots == 12
        assert [slot for slot, _ in page.records()] == list(range(12))
        for slot in range(12):
            assert page.read(slot) == bytes([100 + slot]) * (30 - 2 * slot)
        assert page.validate() == []

    def test_survives_a_byte_round_trip(self):
        page = self._page(b"aaaa", b"bbbb", b"cccc")
        page.update(1, b"B" * 17)
        restored = Page(bytes(page.data))
        assert list(restored.records()) == list(page.records())

    def test_sets_dirty(self):
        page = Page(bytes(self._page(b"aaaa").data))
        assert not page.dirty
        page.update(0, b"bbbbbb")
        assert page.dirty

    def test_deleted_or_missing_slot_raises(self):
        page = self._page(b"aaaa")
        page.delete(0)
        with pytest.raises(RecordNotFoundError):
            page.update(0, b"x")
        with pytest.raises(RecordNotFoundError):
            page.update(1, b"x")

    def test_oversized_record_rejected(self):
        page = self._page(b"aaaa")
        with pytest.raises(PageFullError):
            page.update(0, b"x" * (MAX_RECORD_SIZE + 1))


class TestPageSerialization:
    def test_round_trip_through_bytes(self):
        page = Page()
        for i in range(20):
            page.insert(f"record-{i}".encode())
        page.delete(5)
        restored = Page(bytes(page.data))
        assert list(restored.records()) == list(page.records())

    def test_wrong_buffer_size_rejected(self):
        with pytest.raises(ValueError):
            Page(b"short")

    def test_restored_page_not_dirty(self):
        page = Page()
        page.insert(b"a")
        restored = Page(bytes(page.data))
        assert not restored.dirty


class TestPageCompaction:
    @staticmethod
    def _full_page():
        """Six 1 300-byte records, then one filling the rest of the gap."""
        page = Page()
        for i in range(6):
            page.insert(bytes([65 + i]) * 1300)
        page.insert(b"z" * page.free_space)
        assert page.free_space == 0 and page.dead_bytes == 0
        return page

    def test_a_growth_past_the_gap_compacts_then_grows(self):
        page = self._full_page()
        page.delete(2)
        assert page.dead_bytes == 1300
        assert page.update(4, b"E" * 2000)
        assert page.dead_bytes == 0
        assert dict(page.records()) == {
            0: b"A" * 1300, 1: b"B" * 1300, 3: b"D" * 1300, 4: b"E" * 2000,
            5: b"F" * 1300, 6: page.read(6),
        }
        assert page.free_space == 1300 - 700 - 4
        assert page.validate() == []

    def test_an_insert_past_the_gap_compacts(self):
        page = self._full_page()
        page.delete(0)
        page.delete(5)
        assert page.insert(b"n" * 2000) == 7
        assert page.dead_bytes == 0
        assert page.read(7) == b"n" * 2000
        assert [slot for slot, _ in page.records()] == [1, 2, 3, 4, 6, 7]
        assert page.validate() == []

    def test_refuses_only_when_live_bytes_fill_the_page(self):
        page = self._full_page()
        page.delete(1)
        before = bytes(page.data)
        room = page.dead_bytes  # the gap is empty
        assert not page.update(0, b"A" * (1300 + room + 1))
        assert not page.can_fit(b"x" * (room - 4 + 1))
        with pytest.raises(PageFullError):
            page.insert(b"x" * (room - 4 + 1))
        assert bytes(page.data) == before
        assert page.update(0, b"A" * (1300 + room))
        assert page.free_space == 0 and page.dead_bytes == 0
        assert page.validate() == []

    def test_a_shrink_or_a_fitting_growth_does_not_compact(self):
        page = self._full_page()
        page.delete(3)
        page.update(0, b"a" * 1000)
        assert page.dead_bytes == 1300
        page.update(1, b"b" * 1500)
        assert page.dead_bytes == 1300
        assert page.validate() == []


# One step of the page property: (operation, slot pick, record size).
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(0, 1 << 16),
        st.one_of(st.integers(0, 40), st.integers(500, 2600)),
    ),
    min_size=30,
    max_size=80,
)


def run_steps(steps):
    """Apply ``steps`` to a fresh page and a dict model, checking each one.

    A write must succeed exactly when the live records, their slots and
    the new size fit the page, whatever the dead bytes.
    """
    page = Page()
    model: dict[int, bytes] = {}
    for step, (kind, pick, size) in enumerate(steps):
        record = random.Random(step).randbytes(size)
        live = sorted(model)
        room = PAGE_SIZE - 4 - 4 * page.num_slots - sum(map(len, model.values()))
        if kind == "insert" or not live:
            if size + 4 <= room:
                assert page.insert(record) == page.num_slots - 1
                model[page.num_slots - 1] = record
            else:
                with pytest.raises(PageFullError):
                    page.insert(record)
        elif kind == "update":
            slot = live[pick % len(live)]
            fits = size - len(model[slot]) <= room
            assert page.update(slot, record) == fits
            if fits:
                model[slot] = record
        else:
            slot = live[pick % len(live)]
            page.delete(slot)
            del model[slot]
        assert dict(page.records()) == model
        assert page.validate() == []
        _, free_end = struct.unpack_from("<HH", page.data)
        assert page.dead_bytes == PAGE_SIZE - free_end - sum(map(len, model.values()))
    return page, model


class TestPageProperty:
    @settings(max_examples=150, deadline=None)
    @given(steps=_STEPS)
    def test_writes_against_a_dict_model(self, steps):
        page, model = run_steps(steps)
        for slot, record in model.items():
            assert page.read(slot) == record
        assert Page(bytes(page.data)).validate() == []
        again, _ = run_steps(steps)
        assert bytes(again.data) == bytes(page.data)


class TestPageValidate:
    @staticmethod
    def _page():
        """Three 100-byte records at [8092, 8192), [7992, 8092), [7892, 7992)."""
        page = Page()
        for fill in b"abc":
            page.insert(bytes([fill]) * 100)
        assert page.validate() == []
        return page

    @staticmethod
    def _set_slot(page, slot, offset, length):
        struct.pack_into("<HH", page.data, 4 + 4 * slot, offset, length)

    def test_records_overlapping_each_other(self):
        page = self._page()
        self._set_slot(page, 1, 7992, 150)  # runs into slot 0's bytes
        assert page.validate() == [
            "slot 1 record [7992, 8142) overlaps slot 0 record [8092, 8192)"
        ]

    def test_a_record_overlapping_the_slot_directory(self):
        page = self._page()
        self._set_slot(page, 2, 8, 100)
        assert page.validate() == [
            "slot 2 record [8, 108) overlaps the slot directory [0, 16)"
        ]

    def test_records_out_of_slot_order(self):
        page = self._page()
        self._set_slot(page, 0, 7992, 100)
        self._set_slot(page, 1, 8092, 100)
        assert page.validate() == [
            "slot 1 record [8092, 8192) lies above slot 0 record [7992, 8092)"
        ]

    def test_deleted_slots_are_skipped(self):
        page = self._page()
        page.delete(1)
        self._set_slot(page, 2, 7992, 100)  # where slot 1's bytes were
        assert page.validate() == []


class TestOffsetShift:
    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(
            st.one_of(
                st.just((0, 0)),  # deleted
                st.tuples(st.integers(1, PAGE_SIZE), st.integers(0, MAX_RECORD_SIZE)),
            ),
            max_size=40,
        ),
        delta=st.integers(-PAGE_SIZE, PAGE_SIZE),
        first=st.integers(0, 40),
    )
    def test_equals_the_per_slot_loop(self, entries, delta, first):
        # Only shifts that keep every live offset inside the page are made.
        first = min(first, len(entries))
        moved = [offset for offset, _ in entries[first:] if offset]
        if moved and not (0 < min(moved) + delta and max(moved) + delta <= PAGE_SIZE):
            delta = 0
        page = Page()
        struct.pack_into("<HH", page.data, 0, len(entries), 4 + 4 * len(entries))
        for slot, (offset, length) in enumerate(entries):
            struct.pack_into("<HH", page.data, 4 + 4 * slot, offset, length)
        expected = bytearray(page.data)
        for slot, (offset, length) in enumerate(entries[first:], first):
            if offset:
                struct.pack_into("<HH", expected, 4 + 4 * slot, offset + delta, length)
        page._shift_offsets(first, len(entries), delta)
        assert page.data == expected
