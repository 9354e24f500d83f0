"""Embedded relational storage engine.

This subpackage is the substrate the fuzzy-match system runs on.  The paper
implements its algorithms "over standard database systems without assuming
the persistence of complex data structures": the ETI is a plain relation with
a clustered B+-tree index, built through a sort-based SQL query.  This engine
provides exactly those primitives in pure Python:

- :mod:`repro.db.page` / :mod:`repro.db.pager`: slotted pages and a buffer
  pool with LRU eviction and I/O accounting.
- :mod:`repro.db.heap`: heap files of encoded rows addressed by record ids.
- :mod:`repro.db.btree`: a B+-tree supporting point and range lookups and
  sorted bulk-loading (used for the ETI clustered index and the reference
  relation's Tid index).
- :mod:`repro.db.exsort`: external merge sort in its two halves (sorted run
  spilling + k-way merge), driven by the ETI build behind the paper's
  ETI-query (``ORDER BY QGram, Coordinate, Column``).
- :mod:`repro.db.relation` / :mod:`repro.db.database`: schema-carrying
  relations (row-at-a-time and sorted bulk writes) and a tiny catalog, the
  "data warehouse" of the paper.
"""

from repro.db.btree import BPlusTree
from repro.db.database import Database
from repro.db.errors import (
    BufferPoolError,
    CrashError,
    DatabaseError,
    DuplicateKeyError,
    PageCorruptionError,
    PageFullError,
    RecordNotFoundError,
    RelationError,
    RetryExhaustedError,
    SchemaError,
    TransientIOError,
    WalError,
    WarehouseConfigError,
)
from repro.db.faults import (
    CrashableStorage,
    CrashableWalFile,
    CrashPoint,
    FaultConfig,
    FaultInjector,
    FaultStats,
)
from repro.db.heap import HeapFile, RecordId
from repro.db.page import Page, PAGE_SIZE
from repro.db.pager import (
    BufferPool,
    FileStorage,
    InMemoryStorage,
    page_checksum,
)
from repro.db.relation import Relation
from repro.db.types import Column, ColumnType, Schema
from repro.db.wal import RecoveryInfo, WalFile, WalStats, WalStorage

__all__ = [
    "BPlusTree",
    "BufferPool",
    "BufferPoolError",
    "Column",
    "ColumnType",
    "CrashableStorage",
    "CrashableWalFile",
    "CrashError",
    "CrashPoint",
    "Database",
    "DatabaseError",
    "DuplicateKeyError",
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "FileStorage",
    "HeapFile",
    "InMemoryStorage",
    "Page",
    "PAGE_SIZE",
    "page_checksum",
    "PageCorruptionError",
    "PageFullError",
    "RecordId",
    "RecordNotFoundError",
    "RecoveryInfo",
    "Relation",
    "RelationError",
    "RetryExhaustedError",
    "Schema",
    "SchemaError",
    "TransientIOError",
    "WalError",
    "WalFile",
    "WalStats",
    "WalStorage",
    "WarehouseConfigError",
]
