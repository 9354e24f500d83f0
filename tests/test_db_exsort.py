"""External merge sort: the two halves the ETI build drives.

``sort_in_runs`` below plays the builder's part: it cuts the input into
sorted runs of ``memory_limit`` rows, spills every full run through
:meth:`SortRuns.spill`, and streams them back, with the in-memory tail,
through :meth:`SortRuns.merge`.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.exsort import SortRuns, SortStats
from repro.eti.builder import EtiBuilder


def sort_in_runs(rows, key=lambda row: row, memory_limit=100_000, tmp_dir=None, stats=None):
    """``rows`` in ``key`` order, at most ``memory_limit`` held at once."""
    with SortRuns(tmp_dir, stats) as runs:
        run = []
        for row in rows:
            run.append(row)
            if len(run) >= memory_limit:
                runs.spill(sorted(run, key=key))
                run = []
        yield from runs.merge(sorted(run, key=key), key)


class TestBasicSorting:
    def test_empty_input(self):
        assert list(sort_in_runs([])) == []

    def test_single_element(self):
        assert list(sort_in_runs([5])) == [5]

    def test_already_sorted(self):
        data = list(range(100))
        assert list(sort_in_runs(data)) == data

    def test_reverse_sorted(self):
        data = list(range(100, 0, -1))
        assert list(sort_in_runs(data)) == sorted(data)

    def test_key_function(self):
        rows = [("b", 2), ("a", 1), ("c", 0)]
        assert list(sort_in_runs(rows, key=lambda r: r[1])) == [
            ("c", 0),
            ("a", 1),
            ("b", 2),
        ]

    def test_memory_limit_validation(self, org_db, paper_config):
        with pytest.raises(ValueError):
            EtiBuilder(org_db, paper_config, sort_memory_limit=1)


class TestSpilling:
    def test_spills_when_over_limit(self):
        stats = SortStats()
        data = [random.Random(3).randrange(1000) for _ in range(1000)]
        rng = random.Random(3)
        data = [rng.randrange(1000) for _ in range(1000)]
        result = list(sort_in_runs(data, memory_limit=100, stats=stats))
        assert result == sorted(data)
        assert stats.runs > 1
        assert stats.spilled_rows >= 900
        assert stats.merge_passes == 1

    def test_no_spill_when_under_limit(self):
        stats = SortStats()
        result = list(sort_in_runs([3, 1, 2], memory_limit=100, stats=stats))
        assert result == [1, 2, 3]
        assert stats.spilled_rows == 0
        assert stats.runs == 1

    def test_exact_multiple_of_limit(self):
        stats = SortStats()
        data = list(range(50, 0, -1))
        assert list(sort_in_runs(data, memory_limit=10, stats=stats)) == sorted(data)
        assert stats.runs == 5  # no empty in-memory tail counted as a run

    def test_stability_across_runs(self):
        # Rows with equal keys must keep input order even when they land in
        # different spill runs.
        rows = [(i % 5, i) for i in range(200)]
        result = list(sort_in_runs(rows, key=lambda r: r[0], memory_limit=20))
        for key in range(5):
            sequence = [i for k, i in result if k == key]
            assert sequence == sorted(sequence)

    def test_temp_files_cleaned_up(self, tmp_path):
        import os

        data = list(range(500, 0, -1))
        list(sort_in_runs(data, memory_limit=50, tmp_dir=str(tmp_path)))
        assert os.listdir(str(tmp_path)) == []

    def test_early_close_cleans_temp_files(self, tmp_path):
        import os

        data = list(range(500, 0, -1))
        gen = sort_in_runs(data, memory_limit=50, tmp_dir=str(tmp_path))
        next(gen)
        gen.close()
        assert os.listdir(str(tmp_path)) == []

    def test_failed_spill_leaves_no_run_file_or_handle(self, tmp_path, monkeypatch):
        import os

        import repro.db.exsort as exsort

        dumps, fdopen, calls, opened = exsort.pickle.dumps, os.fdopen, [], []

        def failing_dumps(*args, **kwargs):
            calls.append(None)
            if len(calls) == 15:  # the fifth row of the second run
                raise OSError("disk full")
            return dumps(*args, **kwargs)

        def recording_fdopen(*args, **kwargs):
            opened.append(fdopen(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(exsort.pickle, "dumps", failing_dumps)
        monkeypatch.setattr(exsort.os, "fdopen", recording_fdopen)
        with pytest.raises(OSError, match="disk full"):
            list(sort_in_runs(range(100), memory_limit=10, tmp_dir=str(tmp_path)))
        assert os.listdir(str(tmp_path)) == []
        assert len(opened) == 2 and all(run_file.closed for run_file in opened)

    def test_failed_run_spill_is_closed_and_removed(self, tmp_path, monkeypatch):
        # The half the ETI builder drives directly: a run whose third row
        # cannot be written leaves neither its file nor an open handle.
        import os

        import repro.db.exsort as exsort

        class Unwritable:
            def __reduce__(self):
                raise OSError("disk full")

        fdopen, opened = os.fdopen, []

        def recording_fdopen(*args, **kwargs):
            opened.append(fdopen(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(exsort.os, "fdopen", recording_fdopen)
        with pytest.raises(OSError, match="disk full"), SortRuns(str(tmp_path)) as runs:
            runs.spill([1, 2, 3])
            runs.spill([4, 5, Unwritable()])
        assert len(runs.paths) == 2 and os.listdir(str(tmp_path)) == []
        assert len(opened) == 2 and all(run_file.closed for run_file in opened)
        assert runs.stats.runs == 1 and runs.stats.spilled_rows == 3

    def test_rows_in_counted(self, org_db, org_reference, paper_config):
        # The builder counts the chunk rows it hands the sort: one per ETI
        # key in a single run, more once keys span runs.
        _, one_run = EtiBuilder(org_db, paper_config).build(org_reference, "eti_one")
        assert one_run.sort.runs == 1
        assert one_run.sort.rows_in == one_run.eti_rows
        _, spilled = EtiBuilder(org_db, paper_config, sort_memory_limit=2).build(
            org_reference, "eti_spilled"
        )
        assert spilled.sort.runs > 1
        assert spilled.sort.rows_in > spilled.eti_rows


class TestComplexRows:
    def test_pre_eti_shaped_rows(self):
        # The actual use: sort pre-ETI rows on the full 4-column key.
        rng = random.Random(7)
        grams = ["ing", "oei", "com", "pan", "sea"]
        rows = [
            (rng.choice(grams), rng.randrange(3), rng.randrange(4), rng.randrange(100))
            for _ in range(500)
        ]
        result = list(sort_in_runs(rows, memory_limit=64))
        assert result == sorted(rows)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(-10_000, 10_000), max_size=400),
        st.integers(min_value=2, max_value=50),
    )
    def test_property_sorted_permutation(self, data, limit):
        result = list(sort_in_runs(data, memory_limit=limit))
        assert result == sorted(data)
