"""On-disk fuzz targets: mutated WAL files and snapshot metadata.

Both targets share one pristine fixture, built once per run: an on-disk
warehouse holding the paper's organization relation with its ETI (so the
snapshot carries indexes, the richest catalog shape ``apply_catalog``
accepts, and a build config), plus a small relation with a committed-but-uncheckpointed WAL
tail — the state a crash leaves behind and recovery must parse.

Each case copies the pristine page/metadata/log triple into a scratch
directory, replaces exactly one file with mutated bytes, and calls
:func:`~repro.db.snapshot.load_database`:

- ``WalTarget`` mutates the write-ahead log;
- ``SnapshotTarget`` mutates the ``.meta.json`` catalog metadata.

The invariant: the load either succeeds (and the rows scan cleanly) or
raises a typed :class:`~repro.db.errors.DatabaseError` — never a raw
``KeyError``/``struct.error``/segfault, and never past the deadline.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from types import TracebackType

from repro.fuzz.mutators import mutate
from repro.fuzz.wire import ORG_COLUMNS, ORG_ROWS

__all__ = ["SnapshotTarget", "WalTarget"]


def _build_fixture(root: str) -> dict[str, bytes]:
    """Build the pristine page/metadata/log triple under ``root``."""
    from repro.core.config import MatchConfig, SignatureScheme
    from repro.core.matcher import FuzzyMatcher
    from repro.db.snapshot import load_database
    from repro.db.types import Column, ColumnType

    path = os.path.join(root, "fixture.pages")
    config = MatchConfig(q=3, signature_size=2, scheme=SignatureScheme.QGRAMS)
    matcher = FuzzyMatcher.build(ORG_COLUMNS, ORG_ROWS, config, path=path, wal=True)
    assert matcher.database is not None
    matcher.database.create_relation("t", [Column("k", ColumnType.INT)]).insert((1,))
    matcher.save()
    matcher.database.close()

    # Leave a committed, uncheckpointed tail in the log — the shape WAL
    # recovery has to parse on every reopen after a crash.
    reopened = load_database(path)
    with reopened.transaction():
        reopened.relation("t").insert((2,))
    reopened.pool.storage.close()

    out: dict[str, bytes] = {}
    for key, name in (
        ("pages", "fixture.pages"),
        ("meta", "fixture.pages.meta.json"),
        ("wal", "fixture.pages.wal"),
    ):
        with open(os.path.join(root, name), "rb") as handle:
            out[key] = handle.read()
    return out


class _DiskTarget:
    """Shared machinery: fixture lifecycle and the load-and-check loop."""

    name = "disk"
    #: which pristine file the subclass mutates: ``"wal"`` or ``"meta"``.
    mutates = "wal"

    def __init__(self, case_deadline_s: float = 5.0) -> None:
        if case_deadline_s <= 0:
            raise ValueError(
                f"case_deadline_s must be positive, got {case_deadline_s}"
            )
        self.case_deadline_s = case_deadline_s
        self._root: str | None = None
        self._pristine: dict[str, bytes] | None = None

    def start(self) -> None:
        """Build the pristine fixture in a scratch directory."""
        self._root = tempfile.mkdtemp(prefix=f"repro-fuzz-{self.name}-")
        fixture_dir = os.path.join(self._root, "fixture")
        os.makedirs(fixture_dir)
        self._pristine = _build_fixture(fixture_dir)

    def close(self) -> None:
        """Remove the scratch directory."""
        if self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
            self._root = None
        self._pristine = None

    def reset(self) -> None:
        """Disk targets hold no live state between cases — nothing to do."""

    def __enter__(self) -> "_DiskTarget":
        self.start()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def run_case(
        self, rng: random.Random
    ) -> tuple[bytes, tuple[str, ...], str] | None:
        """One fuzz case; ``None`` when clean, else (input, recipe, detail)."""
        if self._pristine is None:
            raise RuntimeError(f"{type(self).__name__} is not started")
        data, recipe = mutate(self._pristine[self.mutates], rng)
        detail = self.check_input(data)
        if detail is None:
            return None
        return data, recipe, detail

    def check_input(self, data: bytes) -> str | None:
        """Load the fixture with one file replaced by ``data``."""
        from repro.db.errors import DatabaseError
        from repro.db.snapshot import load_database

        if self._root is None or self._pristine is None:
            raise RuntimeError(f"{type(self).__name__} is not started")
        case_dir = tempfile.mkdtemp(dir=self._root, prefix="case-")
        path = os.path.join(case_dir, "db.pages")
        files = {
            "pages": path,
            "meta": path + ".meta.json",
            "wal": path + ".wal",
        }
        try:
            for key, target_path in files.items():
                payload = data if key == self.mutates else self._pristine[key]
                with open(target_path, "wb") as handle:
                    handle.write(payload)
            started = time.monotonic()
            try:
                db = load_database(path, pool_capacity=64)
            except DatabaseError:
                db = None  # typed refusal: the invariant holds
            except Exception as exc:  # reprolint: disable=exception-taxonomy
                # The whole point of the target: anything outside the
                # DatabaseError taxonomy is an invariant violation.
                return f"untyped load failure: {type(exc).__name__}: {exc}"
            if db is not None:
                try:
                    sorted(db.relation("t").scan())
                except DatabaseError:
                    pass  # typed late failure while deserializing — fine
                except Exception as exc:  # reprolint: disable=exception-taxonomy
                    return f"untyped scan failure: {type(exc).__name__}: {exc}"
                finally:
                    try:
                        db.close()
                    except (DatabaseError, OSError):
                        pass  # a typed/IO close failure is acceptable
            elapsed = time.monotonic() - started
            if elapsed > self.case_deadline_s:
                return f"load exceeded the case deadline ({elapsed:.1f}s)"
            return None
        finally:
            shutil.rmtree(case_dir, ignore_errors=True)


class WalTarget(_DiskTarget):
    """Fuzzes the write-ahead log recovery scan."""

    name = "wal"
    mutates = "wal"


class SnapshotTarget(_DiskTarget):
    """Fuzzes the snapshot catalog metadata loader."""

    name = "snapshot"
    mutates = "meta"
