"""Slotted page behaviour."""

import pytest

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
