"""Deterministic crash-point recovery sweeps.

The harness kills a simulated process after the N-th durable operation
(page write, log append, fsync — see
:class:`~repro.db.faults.CrashPoint`), tearing the fatal write at a
seeded cut.  Sweeping N over a transactional maintenance workload visits
every distinct on-disk state a real crash could leave behind, and for
each one asserts the three durability invariants:

1. the recovered reference relation is a *consistent prefix* of the
   applied operations (never a half-applied tuple),
2. the recovered ETI equals a from-scratch rebuild over that prefix, and
3. fuzzy-match answers over the recovered index are identical to the
   rebuild's.

The template is sized so the workload takes all four ETI row-update
paths of :meth:`repro.db.heap.HeapFile.update`: a row grown in place, a
row shrunk in place, a row grown after its page compacted away a deleted
record's bytes, and a row relocated because its full page could not
absorb the growth.  Tid-list edits spliced into encoded rows
(:meth:`repro.db.types.Schema.splice`) are among the crash points, and
the sweep asserts that it takes every splice path: a tail add appended
in place, a tail add that widens the list's deltas, an inner add, a
head add and a remove.

Scale the sweep with ``REPRO_CRASH_SEEDS`` (default 2 tear seeds; CI
runs 12).  The sweep itself carries the ``crash`` marker.
"""

import json
import os
import shutil
from collections import Counter

import pytest

from repro.core.config import MatchConfig
from repro.core.matcher import FuzzyMatcher
from repro.core.reference import ReferenceTable
from repro.core.weights import build_frequency_cache
from repro.db.database import Database
from repro.db.errors import CrashError, DatabaseError
from repro.db.faults import CrashableStorage, CrashableWalFile, CrashPoint
from repro.db.fsck import check_database
from repro.db.page import PAGE_SIZE, Page
from repro.db.pager import InMemoryStorage
from repro.db.snapshot import load_database, save_database
from repro.db.types import Schema, _decode_varint
from repro.db.wal import WalFile, WalStorage
from repro.eti.builder import build_eti
from repro.eti.index import EtiIndex
from repro.eti.maintenance import EtiMaintainer

from tests.conftest import ORG_COLUMNS, ORG_ROWS

CONFIG = MatchConfig(q=3, signature_size=2)

SEEDS = range(int(os.environ.get("REPRO_CRASH_SEEDS", "2")))

# Filler tuples stored beside the Table 1 rows in the template.  Each
# filler's own rows start with its 8-byte varint tid, so they fill the
# ETI's first heap pages and rows there that grow must be relocated.
BIG_TID = 10**15
FILLER = tuple(
    (BIG_TID + i, (f"Filler{i:02d} Works", "Spokane", "WA", f"99{i:03d}"))
    for i in range(100)
)
BASE_ROWS = ORG_ROWS + FILLER

# Maintenance operations applied after the template snapshot.  Each runs
# in its own WAL transaction, so every crash must land the database on a
# prefix of this sequence; all eight prefix states are pairwise distinct.
# Tid 13's tokens "bonus" and "bon" share the signature entry ("bon", 1):
# the tuple must count once in that row's frequency.  Tid 12 joins the
# fillers' "Spokane" rows ahead of every tid they hold (a head add).  The
# last op repeats a filler tuple under another 8-byte tid: its rows live
# on the full pages, so some must be relocated.
OPS = (
    ("insert", 10, ("Boing Corp", "Kent", "WA", "98032")),
    ("insert", 11, ("Cascade Couriers", "Renton", "WA", "98055")),
    ("delete", 2, None),
    ("insert", 12, ("Bon Voyage Company", "Spokane", "WA", "98402")),
    ("insert", 13, ("Bonus Bon Shop", "Tacoma", "WA", "98402")),
    ("delete", 10, None),
    ("insert", BIG_TID + 999, FILLER[0][1]),
)

QUERIES = (
    ("Beoing Company", "Seattle", "WA", "98004"),
    ("Bon Corporaton", "Seattle", "WA", "98014"),
    ("Cascade Couriers", "Renton", "WA", "98055"),
)


def eti_as_dict(eti):
    """Materialize an ETI as ``{key: (frequency, tid_list)}`` (layout-free)."""
    return {
        (row[0], row[1], row[2]): (
            row[3],
            tuple(row[4]) if row[4] is not None else None,
        )
        for row in eti.relation.scan()
    }


def delta_width_code(schema, record):
    """The delta-width code in the header of ``record``'s trailing int list."""
    header, _ = _decode_varint(record, schema.prefix_size(record, len(schema) - 1))
    return header & 3


def splice_outcome(schema, data, spliced, value, add):
    """Which of :meth:`Schema.splice`'s edits turned ``data`` into ``spliced``.

    A tail add whose delta fits the list's width is appended to the
    copied list; one that outgrows it re-encodes the list wider, as do
    head and inner adds and removes at whatever width the list needs.
    """
    if not add:
        return "remove"
    before, after = schema.decode(data)[-1], schema.decode(spliced)[-1]
    at = after.index(value)
    if at == 0:
        return "head add"
    if at < len(before):
        return "inner add"
    if delta_width_code(schema, spliced) > delta_width_code(schema, data):
        return "tail add, widened"
    return "tail add"


def expected_state(k):
    """Reference rows after the first ``k`` operations."""
    rows = {tid: tuple(values) for tid, values in BASE_ROWS}
    for kind, tid, values in OPS[:k]:
        if kind == "insert":
            rows[tid] = tuple(values)
        else:
            del rows[tid]
    return rows


def copy_template(template_dir, dest_dir):
    """Clone the template's page/meta/wal files; return the page path."""
    for name in os.listdir(template_dir):
        shutil.copy(os.path.join(template_dir, name), os.path.join(dest_dir, name))
    return str(dest_dir / "db.pages")


def run_workload(page_path, crash_point=None):
    """Load the database, apply every op transactionally, checkpoint.

    With a :class:`CrashPoint`, both the page file and the log are
    wrapped so the countdown covers their interleaved durable-op
    sequence, and the simulated death surfaces as :class:`CrashError`.
    """
    kwargs = {}
    if crash_point is not None:
        kwargs = {
            "storage_wrap": lambda s: CrashableStorage(s, crash_point),
            "wal_wrap": lambda w: CrashableWalFile(w, crash_point),
        }
    db = load_database(page_path, **kwargs)
    try:
        reference = ReferenceTable.attach(db, "orgs", list(ORG_COLUMNS))
        eti = EtiIndex(db.relation("eti"))
        maintainer = EtiMaintainer(reference, eti, CONFIG, database=db)
        for kind, tid, values in OPS:
            if kind == "insert":
                maintainer.insert_tuple(tid, values)
            else:
                maintainer.delete_tuple(tid)
        # Explicit path: the crash wrappers hide the FileStorage underneath.
        save_database(db, page_path)
    finally:
        # Not db.close(): closing flushes, and a dead process must not
        # issue further I/O.  Release the file descriptors only.
        db.pool.storage.close()


def verify_recovered(page_path):
    """Assert all three durability invariants; return the recovered prefix."""
    report = check_database(page_path)
    assert report.ok, report.errors

    db = load_database(page_path)
    try:
        reference = ReferenceTable.attach(db, "orgs", list(ORG_COLUMNS))
        got = {tid: tuple(values) for tid, values in reference.scan()}
        prefixes = [k for k in range(len(OPS) + 1) if expected_state(k) == got]
        assert prefixes, f"recovered state matches no op prefix: {sorted(got)}"
        k = prefixes[0]

        fresh_db = Database.in_memory()
        fresh_ref = ReferenceTable(fresh_db, "orgs", list(ORG_COLUMNS))
        fresh_ref.load(sorted(got.items()))
        fresh_eti, _ = build_eti(fresh_db, fresh_ref, CONFIG)
        recovered_eti = EtiIndex(db.relation("eti"))
        assert eti_as_dict(recovered_eti) == eti_as_dict(fresh_eti), (
            f"recovered ETI diverges from a rebuild over prefix {k}"
        )

        weights = build_frequency_cache(
            reference.scan_values(), reference.num_columns
        )
        fresh_weights = build_frequency_cache(
            fresh_ref.scan_values(), fresh_ref.num_columns
        )
        matcher = FuzzyMatcher(reference, weights, CONFIG, recovered_eti)
        fresh_matcher = FuzzyMatcher(fresh_ref, fresh_weights, CONFIG, fresh_eti)
        for query in QUERIES:
            recovered_answer = [
                (m.tid, m.similarity) for m in matcher.match(query).matches
            ]
            rebuilt_answer = [
                (m.tid, m.similarity) for m in fresh_matcher.match(query).matches
            ]
            assert recovered_answer == rebuilt_answer, (query, k)
        fresh_db.close()
        return k
    finally:
        db.close()


@pytest.fixture(scope="module")
def template_dir(tmp_path_factory):
    """A snapshotted reference + ETI warehouse, cloned per crash run."""
    base = tmp_path_factory.mktemp("crash-template")
    db = Database.on_disk(str(base / "db.pages"))
    reference = ReferenceTable(db, "orgs", list(ORG_COLUMNS))
    reference.load(BASE_ROWS)
    build_eti(db, reference, CONFIG)
    save_database(db)
    db.close()
    return base


@pytest.fixture(scope="module")
def total_ops(template_dir, tmp_path_factory):
    """Durable-op count of one crash-free workload (the sweep's range)."""
    work = tmp_path_factory.mktemp("crash-dryrun")
    page_path = copy_template(template_dir, work)
    probe = CrashPoint(crash_after=10**9)
    run_workload(page_path, probe)
    assert not probe.crashed
    return probe.ops


class TestCrashFree:
    def test_workload_without_crash_applies_every_op(self, template_dir, tmp_path):
        page_path = copy_template(template_dir, tmp_path)
        run_workload(page_path)
        assert verify_recovered(page_path) == len(OPS)

    def test_workload_has_enough_crash_points(self, total_ops):
        # The sweep must cover every transaction boundary and the
        # checkpoint's apply/meta/reset phases.
        assert total_ops > 4 * len(OPS)


class TestCrashSweep:
    @pytest.mark.crash
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_crash_point_recovers_consistently(
        self, template_dir, total_ops, tmp_path, seed, monkeypatch
    ):
        # Count the ETI row-update paths the workload takes, from outside.
        paths = Counter()
        page_update = Page.update

        def counting_update(page, slot, record):
            before = len(page.read(slot))
            dead = page.dead_bytes
            fitted = page_update(page, slot, record)
            if not fitted:
                paths["relocated"] += 1
            elif dead and not page.dead_bytes:
                paths["compacted"] += 1
            elif len(record) > before:
                paths["grown in place"] += 1
            elif len(record) < before:
                paths["shrunk in place"] += 1
            return fitted

        splice = Schema.splice

        def counting_splice(schema, data, value, add, ints=None):
            spliced = splice(schema, data, value, add, ints)
            if spliced is not None:
                paths[splice_outcome(schema, data, spliced, value, add)] += 1
            return spliced

        monkeypatch.setattr(Page, "update", counting_update)
        monkeypatch.setattr(Schema, "splice", counting_splice)
        recovered_prefixes = set()
        for crash_after in range(total_ops):
            work = tmp_path / f"run-{crash_after}"
            work.mkdir()
            page_path = copy_template(template_dir, work)
            crash_point = CrashPoint(crash_after, seed=seed)
            with pytest.raises(CrashError):
                run_workload(page_path, crash_point)
            recovered_prefixes.add(verify_recovered(page_path))
            shutil.rmtree(work)  # keep the sweep's disk footprint flat
        # The sweep must actually traverse the workload: the earliest
        # crash recovers the template, the latest recovers everything.
        assert 0 in recovered_prefixes
        assert len(OPS) in recovered_prefixes
        for path in (
            "grown in place", "shrunk in place", "compacted", "relocated",
            "tail add", "inner add", "head add", "remove", "tail add, widened",
        ):
            assert paths[path] >= 1, (path, sorted(paths.items()))

    def test_crash_during_checkpoint_loses_nothing(
        self, template_dir, total_ops, tmp_path
    ):
        # The final durable ops belong to save_database; dying there must
        # still recover every committed operation.
        page_path = copy_template(template_dir, tmp_path)
        crash_point = CrashPoint(total_ops - 1, seed=0)
        with pytest.raises(CrashError):
            run_workload(page_path, crash_point)
        assert verify_recovered(page_path) == len(OPS)


class TestWalRecordIntegrity:
    def test_large_commit_payload_survives_reopen(self, tmp_path):
        # Regression: the scan used to reject any record whose payload
        # exceeded ~32 KiB as a corrupt length field, so a committed
        # catalog manifest past that size (a few thousand heap/ETI pages'
        # worth of page_numbers) was fsync'd, reported durable, and then
        # silently truncated away — transaction and all — on the next open.
        wal_path = str(tmp_path / "big.wal")
        storage = WalStorage(InMemoryStorage(), WalFile(wal_path))
        storage.allocate()
        storage.write(0, b"\x07" * PAGE_SIZE)
        manifest = json.dumps({"page_numbers": list(range(40_000))}).encode()
        assert len(manifest) > 200_000
        storage.commit(manifest)
        storage.close()

        reopened = WalStorage(InMemoryStorage(), WalFile(wal_path))
        assert reopened.recovery.torn_bytes == 0
        assert reopened.recovery.committed_txns == 1
        assert reopened.recovered_catalog == manifest
        assert reopened.read(0) == b"\x07" * PAGE_SIZE
        reopened.close()

    def test_short_pwrite_appends_whole_record(self, tmp_path, monkeypatch):
        # Regression: WalFile.append ignored os.pwrite's return value, so
        # a short write left a gap in the log that commit() still reported
        # durable; the transaction then vanished as a torn tail on reopen.
        real_pwrite = os.pwrite

        def trickle_pwrite(fd, data, offset):
            return real_pwrite(fd, bytes(data)[:7], offset)

        monkeypatch.setattr("repro.db.wal.os.pwrite", trickle_pwrite)
        wal_path = str(tmp_path / "trickle.wal")
        storage = WalStorage(InMemoryStorage(), WalFile(wal_path))
        storage.allocate()
        storage.write(0, b"\x03" * PAGE_SIZE)
        storage.commit(b"manifest")
        storage.close()
        monkeypatch.undo()

        reopened = WalStorage(InMemoryStorage(), WalFile(wal_path))
        assert reopened.recovery.torn_bytes == 0
        assert reopened.recovery.committed_txns == 1
        assert reopened.recovered_catalog == b"manifest"
        assert reopened.read(0) == b"\x03" * PAGE_SIZE
        reopened.close()


class TestTornAndForeignLogs:
    def test_torn_tail_is_discarded(self, template_dir, tmp_path):
        page_path = copy_template(template_dir, tmp_path)
        db = load_database(page_path)
        reference = ReferenceTable.attach(db, "orgs", list(ORG_COLUMNS))
        eti = EtiIndex(db.relation("eti"))
        maintainer = EtiMaintainer(reference, eti, CONFIG, database=db)
        maintainer.insert_tuple(10, ("Boing Corp", "Kent", "WA", "98032"))
        db.pool.storage.close()

        with open(page_path + ".wal", "ab") as handle:
            handle.write(b"\x02garbage-from-a-torn-append")

        reopened = load_database(page_path)
        assert reopened.wal.recovery.torn_bytes > 0
        assert 10 in ReferenceTable.attach(reopened, "orgs", list(ORG_COLUMNS))
        reopened.close()

    def test_foreign_generation_is_refused(self, template_dir, tmp_path):
        page_path = copy_template(template_dir, tmp_path)
        db = load_database(page_path)
        # Forge a log from a different lineage: bump its generation far
        # past the snapshot's.
        db.wal.reset(db.wal.generation + 7)
        db.pool.storage.close()
        with pytest.raises(DatabaseError, match="generation"):
            load_database(page_path)

    def test_stale_pre_checkpoint_log_is_discarded(self, template_dir, tmp_path):
        # A log exactly one generation behind the snapshot is the
        # checkpoint-crash leftover: its images are already in the page
        # file, so load must discard it and still answer correctly.
        page_path = copy_template(template_dir, tmp_path)
        db = load_database(page_path)
        db.wal.reset(db.wal.generation - 1)
        db.pool.storage.close()
        reopened = load_database(page_path)
        assert reopened.wal.generation == reopened.wal.recovery.generation + 1
        assert sorted(
            tid for tid, _ in ReferenceTable.attach(
                reopened, "orgs", list(ORG_COLUMNS)
            ).scan()
        ) == sorted(tid for tid, _ in BASE_ROWS)
        reopened.close()
