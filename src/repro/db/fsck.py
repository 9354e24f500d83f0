"""Offline consistency checking for a snapshotted database (``repro fsck``).

Three layers of checks, cheapest first:

1. **Physical**: the metadata parses, the write-ahead log scans cleanly
   (header intact; a torn tail is a *warning* — recovery discards it —
   but a generation that matches neither the snapshot's nor its
   predecessor is an error), and every page passes its CRC32 from the
   snapshot manifest.  Pages whose newest image lives in the committed
   log tail are exempt (their record CRCs vouched for them during the
   scan).  Every page then gets a structural slotted-layout check
   (:meth:`~repro.db.page.Page.validate`): on a checksummed page a
   problem is an error — the program wrote it — and on an exempt page a
   warning.
2. **Logical**: the database actually loads — catalog applies, indexes
   rebuild, heaps decode.
3. **Referential**: every tid in every ETI tid-list resolves to a live
   reference tuple in a tid-indexed relation, and no non-stop row claims
   a frequency below its tid-list length.

The report also lists each relation's heap pages and dead bytes
(:attr:`~repro.db.page.Page.dead_bytes`), so bloat shows without a
debugger.

The report's :attr:`FsckReport.exit_code` follows the fsck convention:
0 clean, 1 recoverable findings only (warnings), 2 corruption (errors).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.db.errors import DatabaseError
from repro.db.page import Page
from repro.db.pager import FileStorage, page_checksum
from repro.db.snapshot import load_database
from repro.db.wal import HEADER_SIZE, WalFile, scan_wal

#: Name of the unique tid index reference relations carry (mirrors
#: ``repro.core.reference.TID_INDEX`` without importing core from db).
_TID_INDEX = "tid_idx"


@dataclass(frozen=True)
class RelationSpace:
    """A relation's heap footprint: pages, and deleted records' bytes on them."""

    pages: int
    dead_bytes: int


@dataclass
class FsckReport:
    """Findings of one :func:`check_database` run."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    pages_checked: int = 0
    wal_committed_txns: int = 0
    wal_torn_bytes: int = 0
    eti_rows_checked: int = 0
    eti_tids_checked: int = 0
    relations: dict[str, RelationSpace] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no errors were found (warnings allowed)."""
        return not self.errors

    @property
    def exit_code(self) -> int:
        """0 clean, 1 warnings only, 2 errors."""
        if self.errors:
            return 2
        if self.warnings:
            return 1
        return 0

    def lines(self) -> list[str]:
        """Human-readable report, one finding per line."""
        out = [
            f"pages checked:       {self.pages_checked}",
            f"wal committed txns:  {self.wal_committed_txns}",
            f"wal torn bytes:      {self.wal_torn_bytes}",
            f"eti rows checked:    {self.eti_rows_checked}",
            f"eti tids checked:    {self.eti_tids_checked}",
        ]
        out.extend(
            f"relation {name}: {space.pages} pages, {space.dead_bytes} dead bytes"
            for name, space in self.relations.items()
        )
        out.extend(f"WARNING: {w}" for w in self.warnings)
        out.extend(f"ERROR: {e}" for e in self.errors)
        out.append(
            {0: "clean", 1: "recoverable findings only", 2: "corruption found"}[
                self.exit_code
            ]
        )
        return out


def _check_wal(page_path: str, generation: int, report: FsckReport) -> frozenset[int]:
    """Scan the log; return pages whose newest committed image lives there."""
    wal_path = page_path + ".wal"
    if not os.path.exists(wal_path):
        return frozenset()
    wal_file = WalFile(wal_path)
    try:
        try:
            scan = scan_wal(wal_file)
        except DatabaseError as exc:
            report.errors.append(f"WAL unusable: {exc}")
            return frozenset()
        if scan.was_empty:
            return frozenset()
        report.wal_committed_txns = scan.committed_txns
        torn = wal_file.size - scan.valid_end
        if torn > 0:
            report.wal_torn_bytes = torn
            report.warnings.append(
                f"WAL has a torn tail of {torn} bytes (recovery will discard it)"
            )
        if scan.valid_end > HEADER_SIZE and scan.generation not in (
            generation,
            generation - 1,
        ):
            report.errors.append(
                f"WAL generation {scan.generation} matches neither snapshot "
                f"generation {generation} nor its predecessor"
            )
        if scan.generation == generation - 1:
            report.warnings.append(
                "WAL is one generation behind the snapshot (pre-checkpoint "
                "leftover; recovery will discard it)"
            )
            return frozenset()
        return frozenset(scan.committed)
    finally:
        wal_file.close()


def _check_pages(
    page_path: str,
    checksums: list[int | None] | None,
    wal_pages: frozenset[int],
    report: FsckReport,
) -> None:
    """Verify page CRCs from the manifest, then every page's layout."""
    storage = FileStorage(page_path)
    try:
        listed = len(checksums) if checksums is not None else 0
        if listed > storage.num_pages:
            report.errors.append(
                f"snapshot lists {listed} pages but the page file holds "
                f"{storage.num_pages}"
            )
        for page_no in range(storage.num_pages):
            data = storage.read(page_no)
            report.pages_checked += 1
            expected = (
                checksums[page_no]
                if checksums is not None and page_no < listed
                else None
            )
            # A page whose newest image lives in the log (or that predates
            # checksummed snapshots) has only the layout check to go on.
            exempt = page_no in wal_pages or expected is None
            if not exempt:
                actual = page_checksum(data)
                if actual != expected:
                    report.errors.append(
                        f"page {page_no} checksum mismatch "
                        f"(expected {expected:#010x}, got {actual:#010x})"
                    )
                    continue
            for problem in Page(data).validate():
                if exempt:
                    report.warnings.append(
                        f"page {page_no} structurally suspect: {problem}"
                    )
                else:
                    report.errors.append(f"page {page_no} structurally unsound: {problem}")
    finally:
        storage.close()


def check_database(page_path: str, eti_name: str = "eti") -> FsckReport:
    """Run every fsck layer over the snapshot at ``page_path``.

    Read-only: nothing is repaired, the log is not truncated, and the
    page file is opened only for reading (``repro recover`` is the
    repairing counterpart).
    """
    report = FsckReport()
    meta_file = page_path + ".meta.json"
    if not os.path.exists(page_path):
        report.errors.append(f"no page file at {page_path}")
        return report
    if not os.path.exists(meta_file):
        report.errors.append(f"no snapshot metadata at {meta_file}")
        return report
    try:
        with open(meta_file) as handle:
            meta = json.load(handle)
    except (OSError, ValueError) as exc:
        report.errors.append(f"snapshot metadata unreadable: {exc}")
        return report
    generation = int(meta.get("generation", 0))

    wal_pages = _check_wal(page_path, generation, report)
    _check_pages(page_path, meta.get("page_checksums"), wal_pages, report)
    if report.errors:
        return report  # physically broken: loading would just re-raise

    try:
        db = load_database(page_path)
    except DatabaseError as exc:
        report.errors.append(f"database does not load: {exc}")
        return report
    try:
        known_tids: set[int] = set()
        for name in db.relation_names():
            relation = db.relation(name)
            report.relations[name] = RelationSpace(
                relation.num_pages, relation.heap.dead_bytes
            )
            if _TID_INDEX in relation.index_names():
                known_tids.update(row[0] for row in relation.scan())
        if eti_name in db:
            for row in db.relation(eti_name).scan():
                report.eti_rows_checked += 1
                tid_list = row[4]
                if tid_list is None:
                    continue  # stop q-gram: nothing to resolve
                if row[3] < len(tid_list):
                    report.warnings.append(
                        f"ETI row {row[0]!r}/{row[1]}/{row[2]} frequency "
                        f"{row[3]} below tid-list length {len(tid_list)}"
                    )
                for tid in tid_list:
                    report.eti_tids_checked += 1
                    if tid not in known_tids:
                        report.errors.append(
                            f"ETI row {row[0]!r}/{row[1]}/{row[2]} references "
                            f"tid {tid} absent from every tid-indexed relation"
                        )
    finally:
        db.close()
    return report
