"""Storage backends and the buffer pool.

The buffer pool caches :class:`~repro.db.page.Page` objects over a storage
backend and evicts with LRU, flushing dirty pages on the way out.  It keeps
I/O counters so benchmarks can report logical vs. physical page accesses —
the currency the paper uses when arguing the ETI makes few lookups.

Callers must re-fetch pages through :meth:`BufferPool.get_page` for every
operation instead of holding ``Page`` references across calls; a page object
becomes stale once evicted.

Resilience (the online-service requirement the paper's §1 setting implies):

- Every physical write records the page's CRC32 in an in-memory ledger and
  every physical read of a ledgered page is verified against it; a mismatch
  is re-read once (to rule out a transient bus error) and then raised as
  :class:`~repro.db.errors.PageCorruptionError` naming the page — corrupt
  bytes never reach a caller silently.
- Transient storage faults (:class:`~repro.db.errors.TransientIOError`)
  are retried with exponential backoff under a configurable
  :class:`~repro.core.resilience.RetryPolicy`; exhaustion raises
  :class:`~repro.db.errors.RetryExhaustedError`.
"""

from __future__ import annotations

import os
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

from repro.analysis.debuglock import assert_owned, make_rlock

from repro.db.errors import (
    BufferPoolError,
    PageCorruptionError,
    RetryExhaustedError,
    TransientIOError,
)
from repro.db.page import Page, PAGE_SIZE
from repro.db.wal import WalStorage

if TYPE_CHECKING:
    from repro.core.resilience import RetryPolicy


def page_checksum(data: bytes) -> int:
    """The CRC32 checksum of one page's bytes."""
    return zlib.crc32(data) & 0xFFFFFFFF


class StorageBackend(Protocol):
    """Structural protocol for page storage under a :class:`BufferPool`.

    Implemented by :class:`InMemoryStorage`, :class:`FileStorage`, and the
    chaos suite's :class:`~repro.db.faults.FaultInjector` wrapper.
    """

    @property
    def num_pages(self) -> int:
        """Number of pages allocated so far."""
        ...

    def allocate(self) -> int:
        """Add a zeroed page and return its page number."""
        ...

    def read(self, page_no: int) -> bytes:
        """Return the raw bytes of page ``page_no``."""
        ...

    def write(self, page_no: int, data: bytes) -> None:
        """Overwrite page ``page_no`` with ``data``."""
        ...

    def sync(self) -> None:
        """Flush written pages to stable storage (fsync for file backends)."""
        ...

    def close(self) -> None:
        """Release any resources the backend holds."""
        ...


class InMemoryStorage:
    """Page storage backed by a list of byte buffers."""

    def __init__(self) -> None:
        self._pages: list[bytes] = []

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    def allocate(self) -> int:
        """Add a zeroed page and return its page number."""
        self._pages.append(bytes(PAGE_SIZE))
        return len(self._pages) - 1

    def read(self, page_no: int) -> bytes:
        """Return the raw bytes of page ``page_no``."""
        if not 0 <= page_no < len(self._pages):
            raise BufferPoolError(
                f"page {page_no} out of range (storage has {len(self._pages)})"
            )
        return self._pages[page_no]

    def write(self, page_no: int, data: bytes) -> None:
        """Overwrite page ``page_no`` with ``data``."""
        if len(data) != PAGE_SIZE:
            raise BufferPoolError("page write with wrong size")
        if not 0 <= page_no < len(self._pages):
            raise BufferPoolError(
                f"page {page_no} out of range (storage has {len(self._pages)})"
            )
        self._pages[page_no] = bytes(data)

    def sync(self) -> None:
        """No-op: memory has no stable storage to sync to."""

    def close(self) -> None:
        """Release all pages."""
        self._pages.clear()


class FileStorage:
    """Page storage backed by a single file on disk."""

    def __init__(self, path: str) -> None:
        self.path = path
        flags = os.O_RDWR | os.O_CREAT
        self._fd = os.open(path, flags, 0o644)
        size = os.fstat(self._fd).st_size
        if size % PAGE_SIZE:
            raise BufferPoolError(f"{path} is not page aligned ({size} bytes)")
        self._num_pages = size // PAGE_SIZE

    @property
    def num_pages(self) -> int:
        return self._num_pages

    def allocate(self) -> int:
        """Extend the file by one zeroed page; return its page number."""
        page_no = self._num_pages
        os.pwrite(self._fd, bytes(PAGE_SIZE), page_no * PAGE_SIZE)
        self._num_pages += 1
        return page_no

    def read(self, page_no: int) -> bytes:
        """Read one page from the file."""
        if not 0 <= page_no < self._num_pages:
            raise BufferPoolError(
                f"page {page_no} out of range (storage has {self._num_pages})"
            )
        data = os.pread(self._fd, PAGE_SIZE, page_no * PAGE_SIZE)
        if len(data) != PAGE_SIZE:
            raise BufferPoolError(
                f"short read on page {page_no}: got {len(data)} bytes"
            )
        return data

    def write(self, page_no: int, data: bytes) -> None:
        """Write one page to the file."""
        if len(data) != PAGE_SIZE:
            raise BufferPoolError("page write with wrong size")
        if not 0 <= page_no < self._num_pages:
            raise BufferPoolError(
                f"page {page_no} out of range (storage has {self._num_pages})"
            )
        os.pwrite(self._fd, data, page_no * PAGE_SIZE)

    def sync(self) -> None:
        """fsync the page file."""
        os.fsync(self._fd)

    def close(self) -> None:
        """Close the backing file descriptor."""
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1


@dataclass
class PoolStats:
    """Buffer pool access counters."""

    hits: int = 0
    misses: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    evictions: int = 0
    read_retries: int = 0
    write_retries: int = 0
    checksum_failures: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.physical_reads = 0
        self.physical_writes = 0
        self.evictions = 0
        self.read_retries = 0
        self.write_retries = 0
        self.checksum_failures = 0

    @property
    def logical_accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.logical_accesses
        return self.hits / total if total else 0.0


class BufferPool:
    """LRU page cache over a storage backend.

    ``retry_policy`` governs how transient storage faults are absorbed
    (default: 4 attempts with exponential backoff).  ``verify_checksums``
    turns the CRC32 read-verification ledger on (the default) or off;
    writes always record checksums so verification can be primed later
    (e.g. from a snapshot's persisted checksums).
    """

    def __init__(
        self,
        storage: StorageBackend | None = None,
        capacity: int = 1024,
        retry_policy: RetryPolicy | None = None,
        verify_checksums: bool = True,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if capacity < 1:
            raise BufferPoolError("buffer pool needs capacity >= 1")
        if retry_policy is None:
            # Deferred: repro.core pulls in repro.core.batch, which imports
            # repro.db.database, which imports this module.
            from repro.core.resilience import RetryPolicy

            retry_policy = RetryPolicy()
        self.storage = storage if storage is not None else InMemoryStorage()
        self.capacity = capacity
        self.retry_policy = retry_policy
        self.verify_checksums = verify_checksums
        self.stats = PoolStats()
        self._sleep = sleep
        self._checksums: dict[int, int] = {}
        self._cache: OrderedDict[int, Page] = OrderedDict()
        # Even read-only page access reorders (and can evict from) the LRU
        # map, so concurrent readers — the parallel batch matcher — must
        # serialize around it.  Reentrant: _install runs under get_page.
        self._lock = make_rlock("BufferPool._lock")

    @property
    def num_pages(self) -> int:
        return self.storage.num_pages

    def allocate_page(self) -> int:
        """Allocate a fresh page in storage, cache it, return its number."""
        with self._lock:
            page_no = self.storage.allocate()
            self._checksums[page_no] = page_checksum(bytes(PAGE_SIZE))
            page = Page()
            page.dirty = True
            self._install(page_no, page)
            return page_no

    def get_page(self, page_no: int) -> Page:
        """Return the page, reading it from storage on a miss.

        Physical reads retry transient faults per the pool's policy and
        are verified against the checksum ledger; a persistent mismatch
        raises :class:`PageCorruptionError` naming the page.
        """
        with self._lock:
            page = self._cache.get(page_no)
            if page is not None:
                self.stats.hits += 1
                self._cache.move_to_end(page_no)
                return page
            self.stats.misses += 1
            if not 0 <= page_no < self.storage.num_pages:
                raise BufferPoolError(f"page {page_no} does not exist")
            page = Page(self._read_verified(page_no))
            self._install(page_no, page)
            return page

    def checksum(self, page_no: int) -> int | None:
        """The ledgered CRC32 of ``page_no`` (None if never written here)."""
        with self._lock:
            return self._checksums.get(page_no)

    def prime_checksums(self, checksums: dict[int, int]) -> None:
        """Seed the verification ledger (e.g. from snapshot metadata)."""
        with self._lock:
            self._checksums.update(checksums)

    def page_checksums(self) -> dict[int, int]:
        """A copy of the current checksum ledger."""
        with self._lock:
            return dict(self._checksums)

    def flush(self) -> None:
        """Write all dirty cached pages back to storage.

        Over a :class:`~repro.db.wal.WalStorage` backend a flush is an
        atomic durability point: the dirty pages land in the log and the
        implicit transaction holding them is committed (fsync'd) —
        either the whole flush survives a crash or none of it does.
        """
        with self._lock:
            for page_no, page in self._cache.items():
                if page.dirty:
                    self._write_page(page_no, bytes(page.data))
                    page.dirty = False
            if isinstance(self.storage, WalStorage):
                self.storage.flush_barrier()

    @property
    def wal(self) -> WalStorage | None:
        """The write-ahead-log backend, when this pool has one."""
        return self.storage if isinstance(self.storage, WalStorage) else None

    def begin_transaction(self) -> None:
        """Open an explicit WAL transaction (no-op without a WAL backend).

        Until :meth:`commit_transaction`, page writes reaching storage —
        flushes and LRU evictions alike — are staged in the log without a
        commit record, so a crash discards them as a unit.
        """
        with self._lock:
            wal = self.wal
            if wal is not None:
                wal.begin()

    def commit_transaction(self, payload: bytes | None = None) -> None:
        """Flush dirty pages into the open transaction and durably commit it.

        ``payload`` (typically the catalog manifest) rides on the COMMIT
        record so recovery can rebuild relations this transaction
        reshaped.  Without a WAL backend this degrades to a plain flush.
        """
        with self._lock:
            self.flush()
            wal = self.wal
            if wal is not None:
                wal.commit(payload)

    def abort_transaction(self) -> None:
        """Discard the open WAL transaction and the pool's view of it.

        Every cached page is dropped (dirty ones included) and the
        checksum ledger is re-primed from committed storage, so reads
        after the abort see the last committed images.  In-memory
        structures above the pool (heap directories, B+-trees) are NOT
        rolled back — after an aborted transaction the database object
        should be reopened.
        """
        with self._lock:
            wal = self.wal
            if wal is None:
                return
            touched = wal.abort()
            self._cache.clear()
            for page_no in sorted(touched):
                if page_no < self.storage.num_pages:
                    self._checksums[page_no] = page_checksum(self.storage.read(page_no))
                else:
                    self._checksums.pop(page_no, None)

    def drop_cache(self) -> None:
        """Flush, then forget every cached page (forces physical re-reads).

        Used by chaos tests and benchmarks that need the next access to go
        through storage; correctness never depends on it.
        """
        with self._lock:
            self.flush()
            self._cache.clear()

    def close(self) -> None:
        """Flush dirty pages and release the cache and storage."""
        with self._lock:
            self.flush()
            self._cache.clear()
            self.storage.close()

    # ------------------------------------------------------------------
    # Physical I/O with retry + verification
    # ------------------------------------------------------------------

    # Caller holds self._lock (reentrant); verified dynamically below.
    def _read_verified(self, page_no: int) -> bytes:  # reprolint: disable=lock-discipline
        """One logical read: retries transient faults, verifies the CRC."""
        assert_owned(self._lock)
        policy = self.retry_policy
        expected = self._checksums.get(page_no) if self.verify_checksums else None
        last_error: Exception | None = None
        for attempt in range(policy.max_attempts):
            if attempt:
                self._sleep(policy.delay(attempt - 1))
                self.stats.read_retries += 1
            try:
                data = self.storage.read(page_no)
            except TransientIOError as exc:
                last_error = exc
                continue
            self.stats.physical_reads += 1
            if expected is None or page_checksum(data) == expected:
                return data
            # Mismatch: count it and re-read — a transient flip heals, a
            # torn page keeps failing and falls through to the raise below.
            self.stats.checksum_failures += 1
            last_error = PageCorruptionError(
                f"page {page_no} failed checksum verification "
                f"(expected {expected:#010x}, got {page_checksum(data):#010x})",
                page_no=page_no,
            )
        if isinstance(last_error, PageCorruptionError):
            raise last_error
        raise RetryExhaustedError(
            f"read of page {page_no} still failing after "
            f"{policy.max_attempts} attempts: {last_error}",
            page_no=page_no,
        ) from last_error

    # Caller holds self._lock (reentrant); verified dynamically below.
    def _write_page(self, page_no: int, data: bytes) -> None:  # reprolint: disable=lock-discipline
        """One logical write: ledger the CRC first, retry transient faults."""
        assert_owned(self._lock)
        policy = self.retry_policy
        self._checksums[page_no] = page_checksum(data)
        last_error: Exception | None = None
        for attempt in range(policy.max_attempts):
            if attempt:
                self._sleep(policy.delay(attempt - 1))
                self.stats.write_retries += 1
            try:
                self.storage.write(page_no, data)
            except TransientIOError as exc:
                last_error = exc
                continue
            self.stats.physical_writes += 1
            return
        raise RetryExhaustedError(
            f"write of page {page_no} still failing after "
            f"{policy.max_attempts} attempts: {last_error}",
            page_no=page_no,
        ) from last_error

    # Caller holds self._lock (reentrant); verified dynamically below.
    def _install(self, page_no: int, page: Page) -> None:  # reprolint: disable=lock-discipline
        assert_owned(self._lock)
        while len(self._cache) >= self.capacity:
            evict_no, evicted = self._cache.popitem(last=False)
            self.stats.evictions += 1
            if evicted.dirty:
                self._write_page(evict_no, bytes(evicted.data))
        self._cache[page_no] = page
        self._cache.move_to_end(page_no)
