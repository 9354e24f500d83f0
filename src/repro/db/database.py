"""The database facade: a catalog of relations over one buffer pool.

Plays the role of the operational data warehouse in the paper: the reference
relation and the ETI live here as standard relations.

Durability: :meth:`Database.on_disk` opens with a write-ahead log by
default.  Mutations grouped under :meth:`Database.transaction` are
all-or-nothing across a process crash — the commit record carries the
catalog manifest, so recovery (on the next open) restores relations whose
heaps grew or shrank mid-transaction.  Opening a path whose log holds
committed transactions replays them; a torn log tail (the crash landed
mid-append) is discarded.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.db.catalog import apply_catalog, encode_catalog
from repro.db.errors import RelationError
from repro.db.pager import BufferPool, FileStorage, InMemoryStorage
from repro.db.relation import Relation
from repro.db.types import Column, Schema
from repro.db.wal import WalFile, WalStorage


class Database:
    """A named collection of relations sharing a buffer pool."""

    def __init__(self, pool: BufferPool | None = None, pool_capacity: int = 4096) -> None:
        self.pool = pool if pool is not None else BufferPool(capacity=pool_capacity)
        self._relations: dict[str, Relation] = {}
        self._txn_depth = 0
        #: ``FuzzyMatcher.build``'s record of the warehouse; every snapshot keeps it.
        self.build_config: dict[str, object] | None = None

    @classmethod
    def on_disk(
        cls,
        path: str,
        pool_capacity: int = 4096,
        wal: bool = True,
        wal_path: str | None = None,
    ) -> "Database":
        """Open a database whose pages live in a file at ``path``.

        With ``wal=True`` (the default) writes are staged in a write-ahead
        log at ``wal_path`` (default ``path + ".wal"``); an existing log is
        recovered on open — committed transactions replayed, torn tails
        discarded — and a committed catalog manifest in the log restores
        the relations it describes.  ``wal=False`` gives the historical
        write-in-place behavior (no crash atomicity).
        """
        storage = FileStorage(path)
        if not wal:
            return cls(BufferPool(storage, capacity=pool_capacity))
        wal_storage = WalStorage(storage, WalFile(wal_path or path + ".wal"))
        db = cls(BufferPool(wal_storage, capacity=pool_capacity))
        manifest = wal_storage.recovered_catalog
        if manifest is not None:
            apply_catalog(db, json.loads(manifest.decode("utf-8"))["relations"])
        return db

    @classmethod
    def in_memory(cls, pool_capacity: int = 4096) -> "Database":
        """Open a database whose pages live in RAM."""
        return cls(BufferPool(InMemoryStorage(), capacity=pool_capacity))

    @property
    def wal(self) -> WalStorage | None:
        """This database's write-ahead log backend, when it has one."""
        return self.pool.wal

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Group mutations into one crash-atomic unit.

        On exit, dirty pages are flushed into the write-ahead log and
        committed together with the catalog manifest — after a crash,
        either the whole group is recovered or none of it.  Nestable: only
        the outermost level commits.  Without a WAL this is a plain flush
        on exit (no crash atomicity).

        On an exception the staged log records are abandoned, but
        in-memory state above the pool (heap directories, B+-trees) is
        NOT rolled back — discard this object and reopen the database.
        """
        if self._txn_depth == 0:
            self.pool.begin_transaction()
        self._txn_depth += 1
        try:
            yield
        # A transaction must abort on *any* exit — KeyboardInterrupt
        # included — and re-raise unchanged; nothing is swallowed here.
        except BaseException:  # reprolint: disable=exception-taxonomy
            self._txn_depth -= 1
            if self._txn_depth == 0:
                self.pool.abort_transaction()
            raise
        else:
            self._txn_depth -= 1
            if self._txn_depth == 0:
                self.pool.commit_transaction(self._catalog_payload())

    def _catalog_payload(self) -> bytes:
        """The catalog manifest bytes a transaction commit carries."""
        return json.dumps({"relations": encode_catalog(self)}).encode("utf-8")

    def create_relation(self, name: str, columns: Iterable[Column]) -> Relation:
        """Create a relation; raises if the name is taken."""
        if name in self._relations:
            raise RelationError(f"relation {name!r} already exists")
        relation = Relation(name, Schema(columns), self.pool)
        self._relations[name] = relation
        return relation

    def relation(self, name: str) -> Relation:
        """Look up a relation by name; raises RelationError if absent."""
        try:
            return self._relations[name]
        except KeyError:
            raise RelationError(f"no relation named {name!r}") from None

    def drop_relation(self, name: str) -> None:
        """Remove a relation from the catalog (pages are not reclaimed)."""
        if name not in self._relations:
            raise RelationError(f"no relation named {name!r}")
        del self._relations[name]

    def relation_names(self) -> tuple[str, ...]:
        """Names of all catalogued relations, in creation order."""
        return tuple(self._relations)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def close(self) -> None:
        """Flush and release the buffer pool; drop the catalog."""
        self.pool.close()
        self._relations.clear()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
