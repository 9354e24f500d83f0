"""Heap file behaviour."""

import pytest

from repro.db.errors import PageFullError, RecordNotFoundError
from repro.db.heap import HeapFile, RecordId
from repro.db.page import MAX_RECORD_SIZE
from repro.db.pager import BufferPool


@pytest.fixture()
def heap():
    return HeapFile(BufferPool(capacity=16))


class TestHeapInsert:
    def test_insert_read_round_trip(self, heap):
        rid = heap.insert(b"record")
        assert heap.read(rid) == b"record"

    def test_len_counts_records(self, heap):
        for i in range(10):
            heap.insert(bytes([i]))
        assert len(heap) == 10

    def test_spills_to_multiple_pages(self, heap):
        record = b"x" * 1000
        rids = [heap.insert(record) for _ in range(30)]
        assert heap.num_pages > 1
        assert all(heap.read(rid) == record for rid in rids)

    def test_oversized_record_rejected(self, heap):
        with pytest.raises(PageFullError):
            heap.insert(b"x" * (MAX_RECORD_SIZE + 1))

    def test_rids_unique(self, heap):
        rids = [heap.insert(bytes([i % 256])) for i in range(500)]
        assert len(set(rids)) == 500


class TestHeapScanDelete:
    def test_scan_in_insert_order(self, heap):
        payloads = [f"row-{i}".encode() for i in range(50)]
        for p in payloads:
            heap.insert(p)
        assert [r for _, r in heap.scan()] == payloads

    def test_scan_skips_deleted(self, heap):
        rids = [heap.insert(bytes([i])) for i in range(5)]
        heap.delete(rids[2])
        remaining = [r for _, r in heap.scan()]
        assert bytes([2]) not in remaining
        assert len(remaining) == 4
        assert len(heap) == 4

    def test_read_after_delete_raises(self, heap):
        rid = heap.insert(b"gone")
        heap.delete(rid)
        with pytest.raises(RecordNotFoundError):
            heap.read(rid)

    def test_bad_page_index_raises(self, heap):
        heap.insert(b"x")
        with pytest.raises(RecordNotFoundError):
            heap.read(RecordId(99, 0))

    def test_scan_yields_matching_rids(self, heap):
        rids = [heap.insert(f"v{i}".encode()) for i in range(20)]
        scanned = {rid: rec for rid, rec in heap.scan()}
        for i, rid in enumerate(rids):
            assert scanned[rid] == f"v{i}".encode()


class TestRecordId:
    def test_ordering(self):
        assert RecordId(0, 5) < RecordId(1, 0)
        assert RecordId(1, 0) < RecordId(1, 1)

    def test_hashable(self):
        assert len({RecordId(0, 0), RecordId(0, 0), RecordId(0, 1)}) == 2


class TestHeapUpdate:
    def test_rewrites_in_place_when_the_page_has_room(self, heap):
        rids = [heap.insert(f"rec{i}".encode()) for i in range(5)]
        assert heap.update(rids[2], b"grown-record-2" * 10) == rids[2]
        assert heap.update(rids[3], b"") == rids[3]
        assert heap.read(rids[2]) == b"grown-record-2" * 10
        assert heap.read(rids[3]) == b""
        assert len(heap) == 5 and heap.num_pages == 1

    def test_relocates_exactly_when_the_page_refuses(self, heap):
        record = b"r" * 1000
        rids = []
        while heap.num_pages < 2:
            rids.append(heap.insert(record))
        first_page = [rid for rid in rids if rid.page_index == 0]
        page = heap.pool.get_page(heap._resolve(first_page[0]))
        room = page.free_space + 4  # the gap: no new slot entry is needed
        fits = heap.update(first_page[0], record + b"x" * room)
        assert fits == first_page[0]
        moved = heap.update(first_page[1], record + b"y")
        assert moved != first_page[1]
        assert moved.page_index == 1
        assert heap.read(moved) == record + b"y"
        with pytest.raises(RecordNotFoundError):
            heap.read(first_page[1])
        assert len(heap) == len(rids)
        assert sorted(rid for rid, _ in heap.scan()) == sorted(
            [rid for rid in rids if rid != first_page[1]] + [moved]
        )

    def test_oversized_record_rejected(self, heap):
        rid = heap.insert(b"small")
        with pytest.raises(PageFullError):
            heap.update(rid, b"x" * (MAX_RECORD_SIZE + 1))
        assert heap.read(rid) == b"small"
