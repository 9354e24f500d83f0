"""Saving and reopening a database across processes.

§6.2.2.1: "Because we persist the ETI as a standard indexed relation, we
can use it for subsequent batches of input tuples if the reference table
does not change."  Page data already lives in the
:class:`~repro.db.pager.FileStorage` file; this module persists the missing
piece — the catalog metadata (schemas, heap page lists, index definitions)
— so a built reference relation + ETI can be reopened without rebuilding.

Durability protocol (v4 snapshots):

- :func:`save_database` is a *checkpoint*: committed WAL page images are
  applied to the page file (fsync'd), the metadata is written atomically
  (temp file + ``os.replace``) carrying a **generation** number one past
  the log's, and only then is the log emptied and stamped with the same
  generation.  A crash at any point leaves a loadable pair.
- :func:`load_database` verifies the triple agrees: a log whose
  generation matches the metadata is a live tail and is replayed; a log
  exactly one generation behind is a pre-checkpoint leftover and is
  discarded; anything else is refused.  Page checksums are verified
  against the metadata, except pages whose newest image lives in the log
  (their record CRCs already vouched for them).

The metadata file is JSON, next to the page file by default.  Its
``build_config`` (``Database.build_config``) is loaded onto the database
and written back by every later checkpoint, as the generation is.  Version 4
is the first whose pages hold delta-coded tid-lists
(:mod:`repro.db.types`); a warehouse of an older version is refused with
a :class:`~repro.db.errors.DatabaseError` that says to rebuild it.
"""

from __future__ import annotations

import json
import os
from typing import Callable

from repro.db.catalog import apply_catalog, encode_catalog
from repro.db.database import Database
from repro.db.errors import DatabaseError, PageCorruptionError, WalError
from repro.db.pager import BufferPool, FileStorage, StorageBackend, page_checksum
from repro.db.wal import WalFile, WalFileLike, WalStorage, scan_wal

_FORMAT_VERSION = 4
_SUPPORTED_VERSIONS = (4,)
# Versions whose pages hold the varint tid-lists version 4 replaced.
_REBUILD_VERSIONS = (1, 2, 3)


def _meta_path(page_path: str) -> str:
    return page_path + ".meta.json"


def _wal_path(page_path: str) -> str:
    return page_path + ".wal"


def _previous_generation(meta_file: str) -> int:
    """The generation recorded in an existing metadata file (0 if none)."""
    if not os.path.exists(meta_file):
        return 0
    try:
        with open(meta_file) as handle:
            return int(json.load(handle).get("generation", 0))
    except (OSError, ValueError):
        return 0


def _write_meta_atomic(path: str, meta: dict[str, object]) -> None:
    """Write ``meta`` as JSON via temp file + ``os.replace`` + fsync.

    A reader never observes a torn metadata file: it sees either the
    previous complete snapshot or the new one.  The parent directory is
    fsync'd after the rename so the replacement itself is durable — the
    checkpoint's next step (``wal.reset``) stamps the log with the new
    generation, and a crash must not be able to pair that log with the
    *old* metadata (a generation mismatch no accepted load branch covers).
    """
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(meta, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def save_database(db: Database, page_path: str | None = None) -> str:
    """Checkpoint the database and write catalog metadata atomically.

    Returns the metadata path.  ``page_path`` defaults to the path of the
    database's file storage; an in-memory database cannot be snapshotted
    (there is no page file to reopen).  For a WAL-backed database this is
    the checkpoint: the log's committed images migrate into the page
    file, the metadata and the emptied log are stamped with the next
    generation, and steady-state reads stop paying the log-tail merge.
    """
    wal = db.pool.wal
    storage = wal.inner if wal is not None else db.pool.storage
    if page_path is None:
        if not isinstance(storage, FileStorage):
            raise DatabaseError(
                "cannot snapshot an in-memory database; open it with "
                "Database.on_disk() first"
            )
        page_path = storage.path
    meta_file = _meta_path(page_path)

    if wal is not None:
        if wal.in_transaction:
            raise DatabaseError("cannot snapshot inside an open transaction")
        db.pool.flush()
        wal.apply_committed()
        generation = wal.generation + 1
    else:
        db.pool.flush()
        generation = _previous_generation(meta_file) + 1

    ledger = db.pool.page_checksums()
    checksums = [
        ledger.get(page_no)
        if ledger.get(page_no) is not None
        else page_checksum(storage.read(page_no))
        for page_no in range(storage.num_pages)
    ]
    meta = {
        "version": _FORMAT_VERSION,
        "generation": generation,
        "page_checksums": checksums,
        "relations": encode_catalog(db),
    }
    if db.build_config is not None:
        meta["build_config"] = db.build_config
    _write_meta_atomic(meta_file, meta)

    if wal is not None:
        wal.reset(generation)
    else:
        # A leftover log from an earlier WAL-enabled run is now stale in a
        # way the generation rules cannot always prove — remove it.
        stale = _wal_path(page_path)
        if os.path.exists(stale):
            os.remove(stale)
    return meta_file


def _refuse_live_wal_tail(page_path: str, generation: int) -> None:
    """Refuse a ``wal=False`` open that would shadow committed log data.

    A non-empty log whose generation matches the snapshot's holds
    committed-but-uncheckpointed transactions; opening without WAL
    recovery would silently serve the stale pre-tail state — and a later
    :func:`save_database` on that handle deletes the log, making the loss
    permanent.  A stale log (one generation behind) or an unparseable one
    holds nothing recoverable and is ignored, as before.
    """
    wal_path = _wal_path(page_path)
    if not os.path.exists(wal_path):
        return
    log = WalFile(wal_path)
    try:
        scan = scan_wal(log)
    except WalError:
        return  # not one of our logs — nothing committed to lose
    finally:
        log.close()
    if scan.was_empty or scan.generation != generation:
        return
    if scan.committed_txns > 0:
        raise DatabaseError(
            f"{wal_path} holds {scan.committed_txns} committed "
            f"transaction(s) not yet checkpointed into {page_path}; "
            "opening with wal=False would silently discard them — reopen "
            "with wal=True (or run 'repro recover') to replay the log first"
        )


def load_database(
    page_path: str,
    pool_capacity: int = 4096,
    wal: bool = True,
    storage_wrap: Callable[[StorageBackend], StorageBackend] | None = None,
    wal_wrap: Callable[[WalFileLike], WalFileLike] | None = None,
) -> Database:
    """Reopen a snapshotted database from its page file + metadata + log.

    With ``wal=True`` (the default) an existing write-ahead log is
    recovered first: committed transactions landed after the snapshot are
    replayed (the newest committed catalog manifest supersedes the
    snapshot's), torn tails are discarded, and generation agreement
    between log and metadata is enforced.  With ``wal=False`` the open is
    refused while the log holds committed-but-uncheckpointed
    transactions (see :func:`_refuse_live_wal_tail`).  Every page is verified before
    any row is deserialized — against the snapshot checksums, or for
    log-resident pages against their record CRCs — and a mismatch raises
    :class:`PageCorruptionError` naming the offending page.  The verified
    checksums prime the reopened pool's ledger, so later physical
    re-reads stay verified.

    ``storage_wrap`` / ``wal_wrap`` interpose on the page backend and the
    log file respectively — the crash-simulation harness's injection
    points.
    """
    meta_file = _meta_path(page_path)
    if not os.path.exists(meta_file):
        raise DatabaseError(f"no snapshot metadata at {meta_file}")
    # The metadata file crosses a trust boundary (any process may have
    # scribbled on it), so every shape assumption is checked and every
    # violation is a typed DatabaseError — the fuzz harness's invariant.
    try:
        with open(meta_file, "rb") as handle:
            meta = json.loads(handle.read())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatabaseError(
            f"snapshot metadata at {meta_file} is not valid JSON: {exc}"
        ) from exc
    except RecursionError as exc:
        # A pathologically nested document (fuzz finding): the stdlib
        # parser recurses per nesting level and blows the stack.
        raise DatabaseError(
            f"snapshot metadata at {meta_file} is nested too deeply"
        ) from exc
    if not isinstance(meta, dict):
        raise DatabaseError(
            f"snapshot metadata at {meta_file} must be a JSON object, "
            f"got {type(meta).__name__}"
        )
    version = meta.get("version")
    if version in _REBUILD_VERSIONS:
        raise DatabaseError(
            f"snapshot version {version} at {meta_file} stores tid-lists in a "
            f"format this release cannot read (it writes version {_FORMAT_VERSION}); "
            "rebuild the warehouse from its reference relation"
        )
    if version not in _SUPPORTED_VERSIONS:
        raise DatabaseError(f"unsupported snapshot version {version!r}")
    generation_raw = meta.get("generation")
    if not isinstance(generation_raw, int) or isinstance(generation_raw, bool):
        raise DatabaseError(
            f"snapshot generation must be an integer, got {generation_raw!r}"
        )
    generation = generation_raw
    build_config = meta.get("build_config")
    if not isinstance(build_config, (dict, type(None))):
        raise DatabaseError(f"snapshot build_config at {meta_file} is not a JSON object")

    if not wal:
        _refuse_live_wal_tail(page_path, generation)
    storage: StorageBackend = FileStorage(page_path)
    if storage_wrap is not None:
        storage = storage_wrap(storage)
    wal_storage: WalStorage | None = None
    effective: StorageBackend = storage
    if wal:
        try:
            wal_file: WalFileLike = WalFile(_wal_path(page_path))
        except DatabaseError:
            storage.close()
            raise
        if wal_wrap is not None:
            wal_file = wal_wrap(wal_file)
        try:
            wal_storage = WalStorage(storage, wal_file)
        except DatabaseError:
            # The recovery scan refused the log (bad magic/version);
            # neither handle reached an owner that would close it.
            wal_file.close()
            storage.close()
            raise
        if wal_storage.was_empty:
            wal_storage.reset(generation)
        elif wal_storage.generation == generation:
            pass  # live tail: the scan already replayed it
        elif generation == wal_storage.generation + 1:
            # The crash landed between the checkpoint's metadata write and
            # its log reset: every logged image is already in the page
            # file, so the tail is stale — discard it.
            wal_storage.reset(generation)
        else:
            wal_storage.close()
            raise DatabaseError(
                f"WAL generation {wal_storage.generation} does not match "
                f"snapshot generation {generation} for {page_path}"
            )
        effective = wal_storage

    checksums = meta.get("page_checksums")
    if (
        not isinstance(checksums, list)
        or any(
            entry is not None
            and (not isinstance(entry, int) or isinstance(entry, bool))
            for entry in checksums
        )
    ):
        effective.close()
        raise DatabaseError(
            "snapshot page_checksums must be a list of integers or nulls"
        )
    ledger: dict[int, int] = {}
    if len(checksums) > effective.num_pages:
        effective.close()
        raise DatabaseError(
            f"snapshot metadata lists {len(checksums)} pages but "
            f"{page_path} holds {effective.num_pages}"
        )
    wal_pages = (
        frozenset(wal_storage.committed_pages()) if wal_storage is not None else frozenset()
    )
    for page_no in range(effective.num_pages):
        actual = page_checksum(effective.read(page_no))
        if page_no in wal_pages:
            # The newest image lives in the log; its record CRC was
            # verified during the recovery scan.  Ledger the actual.
            ledger[page_no] = actual
            continue
        if page_no >= len(checksums):
            # Pages past the snapshot's count are legitimate only as
            # log-resident allocations (handled above).
            effective.close()
            raise DatabaseError(
                f"snapshot metadata lists {len(checksums)} pages but "
                f"{page_path} holds {effective.num_pages}"
            )
        expected = checksums[page_no]
        if expected is None:
            ledger[page_no] = actual
            continue
        if actual != expected:
            effective.close()
            raise PageCorruptionError(
                f"snapshot page {page_no} of {page_path} is corrupt "
                f"(expected CRC {expected:#010x}, got {actual:#010x})",
                page_no=page_no,
            )
        ledger[page_no] = expected

    if "relations" not in meta:
        effective.close()
        raise DatabaseError(f"snapshot metadata at {meta_file} lists no relations")
    pool = BufferPool(effective, capacity=pool_capacity)
    pool.prime_checksums(ledger)
    db = Database(pool)
    db.build_config = build_config
    relations_meta = meta["relations"]
    if wal_storage is not None and wal_storage.recovered_catalog is not None:
        # Committed transactions landed after the snapshot; their catalog
        # manifest supersedes the snapshot's.  Its record CRC vouched for
        # the bytes, but the shape is still checked — typed, not KeyError.
        try:
            relations_meta = json.loads(
                wal_storage.recovered_catalog.decode("utf-8")
            )["relations"]
        except (
            UnicodeDecodeError,
            json.JSONDecodeError,
            KeyError,
            TypeError,
            RecursionError,
        ) as exc:
            effective.close()
            raise DatabaseError(
                f"recovered WAL catalog manifest for {page_path} is "
                f"malformed: {type(exc).__name__}: {exc}"
            ) from exc
    try:
        apply_catalog(db, relations_meta)
    except DatabaseError:
        effective.close()
        raise
    except (
        KeyError,
        TypeError,
        ValueError,
        AttributeError,
        IndexError,
        RecursionError,
    ) as exc:
        # apply_catalog trusts the manifest's shape; a mutated snapshot
        # must still fail typed, naming the file, not with a raw KeyError.
        effective.close()
        raise DatabaseError(
            f"snapshot catalog metadata at {meta_file} is malformed: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return db
