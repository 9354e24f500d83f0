"""The batch/parallel query engine: determinism, dedup, and the CLI path.

The headline guarantee: :class:`BatchMatcher` with any ``jobs`` count
returns results in input order that are bit-identical to the sequential
per-tuple path — parallel execution is an implementation detail, never a
semantic one.
"""

import csv
import json

import pytest

from repro.cli import main as cli_main
from repro.core.batch import BatchMatcher, BatchReport
from repro.core.cache import MatcherCaches
from repro.core.matcher import FuzzyMatcher

from tests.conftest import ORG_INPUTS
from tests.test_cache import build_error_injected_world, result_view


@pytest.fixture(scope="module")
def world():
    db, reference, weights, config, eti, batch = build_error_injected_world(
        num_reference=200, num_inputs=40, repeats=3
    )
    yield reference, weights, config, eti, batch
    db.close()


class TestMatchManyDedup:
    def test_duplicates_matched_once_and_flagged(self, world):
        reference, weights, config, eti, _ = world
        matcher = FuzzyMatcher(reference, weights, config, eti)
        values = ORG_INPUTS[0][0][:2] + ("WA", "98004")
        batch = [values, values, values]
        results = matcher.match_many(batch)
        flags = [result.stats.deduplicated for result in results]
        assert flags == [False, True, True]
        assert result_view([results[0]]) == result_view([results[1]])

    def test_replicas_are_independent_objects(self, world):
        reference, weights, config, eti, batch = world
        matcher = FuzzyMatcher(reference, weights, config, eti)
        first, second = matcher.match_many([batch[0], batch[0]])
        second.matches.clear()
        assert first.matches  # clearing the replica left the original alone

    def test_order_preserved(self, world):
        reference, weights, config, eti, batch = world
        matcher = FuzzyMatcher(reference, weights, config, eti)
        bulk = matcher.match_many(batch)
        singles = [matcher.match(values) for values in batch]
        assert result_view(bulk) == result_view(singles)


class TestBatchMatcherParallel:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("strategy", ["basic", "osc"])
    def test_bit_identical_to_sequential(self, world, jobs, strategy):
        reference, weights, config, eti, batch = world
        sequential = FuzzyMatcher(
            reference, weights, config, eti, caches=MatcherCaches.disabled()
        )
        expected = result_view(
            [sequential.match(values, k=2, strategy=strategy) for values in batch]
        )
        with BatchMatcher(reference, weights, config, eti, jobs=jobs) as engine:
            results = engine.match_many(batch, k=2, strategy=strategy)
        assert result_view(results) == expected

    def test_parallel_naive_strategy(self, world):
        reference, weights, config, eti, batch = world
        matcher = FuzzyMatcher(reference, weights, config, eti)
        expected = result_view(
            [matcher.match(values, strategy="naive") for values in batch[:8]]
        )
        with BatchMatcher(reference, weights, config, eti, jobs=2) as engine:
            results = engine.match_many(batch[:8], strategy="naive")
        assert result_view(results) == expected

    def test_report_accounting(self, world):
        reference, weights, config, eti, batch = world
        with BatchMatcher(reference, weights, config, eti, jobs=2) as engine:
            engine.match_many(batch)
            report = engine.last_report
        assert isinstance(report, BatchReport)
        assert report.total_queries == len(batch)
        assert report.unique_queries == len(set(batch))
        assert report.deduplicated_queries == len(batch) - len(set(batch))
        assert report.queries_per_second > 0
        assert set(report.cache_counters) == {"reference_tokens"}
        assert report.cache_counters["reference_tokens"]["hits"] > 0

    def test_per_query_stats_do_not_race(self, world):
        """Each worker owns its ETI-lookup counter, so per-query stats
        match the sequential run even under concurrency."""
        reference, weights, config, eti, batch = world
        sequential = FuzzyMatcher(
            reference, weights, config, eti, caches=MatcherCaches.disabled()
        )
        distinct = list(dict.fromkeys(batch))
        expected = [
            sequential.match(values).stats.candidates_fetched for values in distinct
        ]
        with BatchMatcher(reference, weights, config, eti, jobs=4) as engine:
            results = engine.match_many(distinct)
        got = [result.stats.candidates_fetched for result in results]
        assert got == expected

    def test_invalid_jobs_rejected(self, world):
        reference, weights, config, eti, _ = world
        with pytest.raises(ValueError, match="jobs"):
            BatchMatcher(reference, weights, config, eti, jobs=0)

    def test_from_matcher(self, world):
        reference, weights, config, eti, batch = world
        matcher = FuzzyMatcher(reference, weights, config, eti)
        with BatchMatcher.from_matcher(matcher, jobs=2) as engine:
            results = engine.match_many(batch[:5])
        assert result_view(results) == result_view(
            [matcher.match(values) for values in batch[:5]]
        )


class TestProcessExecutor:
    """``from_matcher``'s ``executor`` accepts ``"thread"`` and nothing else."""

    def test_thread_executor_accepted(self, world):
        reference, weights, config, eti, batch = world
        matcher = FuzzyMatcher(reference, weights, config, eti)
        with BatchMatcher.from_matcher(matcher, jobs=2, executor="thread") as engine:
            results = engine.match_many(batch[:4])
        assert result_view(results) == result_view(
            [matcher.match(values) for values in batch[:4]]
        )

    def test_process_with_resilience_rejected(self, world):
        from repro.core.resilience import ResiliencePolicy

        reference, weights, config, eti, _ = world
        matcher = FuzzyMatcher(reference, weights, config, eti)
        for resilience in (None, ResiliencePolicy()):
            with pytest.raises(ValueError, match="executor"):
                BatchMatcher.from_matcher(
                    matcher, jobs=2, executor="process", resilience=resilience
                )

    def test_invalid_executor_rejected(self, world):
        reference, weights, config, eti, _ = world
        matcher = FuzzyMatcher(reference, weights, config, eti)
        with pytest.raises(ValueError, match="executor"):
            BatchMatcher.from_matcher(matcher, executor="greenlet")


class TestBatchReportJson:
    def test_degraded_reasons_survive_to_json(self, world):
        """A budget-starved batch reports per-item degradation reasons."""
        from repro.core.resilience import ResiliencePolicy

        reference, weights, config, eti, batch = world
        policy = ResiliencePolicy(max_page_fetches=0)
        with BatchMatcher(
            reference, weights, config, eti, jobs=2, resilience=policy
        ) as engine:
            engine.match_many(batch[:6], strategy="basic")
            report = engine.last_report
        assert report.degraded_queries > 0
        payload = json.loads(report.to_json())
        assert payload["degraded_reasons"] == {
            "page_fetches": report.degraded_queries
        }
        assert payload["failed_types"] == {}
        assert payload["deduplicated_queries"] == report.deduplicated_queries
        assert payload["queries_per_second"] == report.queries_per_second

    def test_failed_types_counted(self):
        report = BatchReport(
            total_queries=3,
            unique_queries=3,
            failed_queries=2,
            failed_types={"TransientIOError": 1, "PageCorruptionError": 1},
        )
        payload = json.loads(report.to_json(indent=2))
        assert payload["failed_types"] == {
            "PageCorruptionError": 1,
            "TransientIOError": 1,
        }


class TestCliJobs:
    @pytest.fixture()
    def csv_pair(self, tmp_path):
        reference = tmp_path / "reference.csv"
        dirty = tmp_path / "dirty.csv"
        cli_main(["generate", "--count", "120", "--seed", "3", "--out", str(reference)])
        cli_main(
            [
                "corrupt",
                "--reference", str(reference),
                "--count", "20",
                "--preset", "D2",
                "--seed", "5",
                "--out", str(dirty),
            ]
        )
        return reference, dirty

    def test_jobs_flag_matches_sequential_output(self, csv_pair, tmp_path):
        reference, dirty = csv_pair
        seq_out = tmp_path / "seq.csv"
        par_out = tmp_path / "par.csv"
        base = ["match", "--reference", str(reference), "--input", str(dirty)]
        assert cli_main(base + ["--out", str(seq_out)]) == 0
        assert cli_main(base + ["--jobs", "4", "--out", str(par_out)]) == 0
        with open(seq_out, newline="") as handle:
            sequential_rows = list(csv.reader(handle))
        with open(par_out, newline="") as handle:
            parallel_rows = list(csv.reader(handle))
        assert sequential_rows == parallel_rows

    def test_report_json_flag_writes_breakdowns(self, csv_pair, tmp_path):
        reference, dirty = csv_pair
        report_path = tmp_path / "report.json"
        assert (
            cli_main(
                [
                    "match",
                    "--reference", str(reference),
                    "--input", str(dirty),
                    "--max-page-fetches", "0",
                    "--report-json", str(report_path),
                    "--out", str(tmp_path / "out.csv"),
                ]
            )
            == 0
        )
        payload = json.loads(report_path.read_text())
        assert payload["total_queries"] == 20
        assert payload["degraded_queries"] > 0
        assert payload["degraded_reasons"].get("page_fetches") == payload[
            "degraded_queries"
        ]
