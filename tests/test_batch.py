"""The batch engine: determinism, dedup, accounting, and shared threads.

The headline guarantee: :meth:`FuzzyMatcher.match_many` returns results
in input order that are bit-identical to the sequential per-tuple path,
and so does one matcher driven from several threads at once — which is
what every :class:`~repro.serve.server.MatchServer` worker does.
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main as cli_main
from repro.core.batch import BatchMatcher, BatchReport
from repro.core.config import MatchConfig, SignatureScheme
from repro.core.matcher import FuzzyMatcher, failed_result
from repro.core.resilience import ResiliencePolicy
from repro.core.weights import (
    BoundedTokenFrequencyCache,
    HashedTokenFrequencyCache,
    build_frequency_cache,
)
from repro.db.database import Database
from repro.db.errors import PageCorruptionError, TransientIOError
from repro.eti.builder import build_eti
from repro.eti.weights import EtiWeightProvider

from tests.conftest import ORG_INPUTS
from tests.test_cache import build_error_injected_world, result_view, threaded_match_many


@pytest.fixture(scope="module")
def world():
    db, reference, weights, config, eti, batch = build_error_injected_world(
        num_reference=200, num_inputs=40, repeats=3
    )
    yield reference, weights, config, eti, batch
    db.close()


def run_report(matcher, batch, **kwargs):
    """``matcher.match_many(batch)`` and the :class:`BatchReport` for it."""
    results = matcher.match_many(batch, **kwargs)
    return results, BatchReport.from_results(results, 1.0)


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
    """One :class:`FuzzyMatcher` shared by threads, as server workers share it."""

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("strategy", ["basic", "osc"])
    def test_bit_identical_to_sequential(self, world, threads, strategy):
        reference, weights, config, eti, batch = world
        sequential = FuzzyMatcher(reference, weights, config, eti)
        expected = result_view(
            [sequential.match(values, k=2, strategy=strategy) for values in batch]
        )
        matcher = FuzzyMatcher(reference, weights, config, eti)
        results = threaded_match_many(matcher, batch, threads, k=2, strategy=strategy)
        assert result_view(results) == expected

    def test_parallel_naive_strategy(self, world):
        reference, weights, config, eti, batch = world
        matcher = FuzzyMatcher(reference, weights, config, eti)
        expected = result_view(
            [matcher.match(values, strategy="naive") for values in batch[:8]]
        )
        shared = FuzzyMatcher(reference, weights, config, eti)
        results = threaded_match_many(shared, batch[:8], 2, strategy="naive")
        assert result_view(results) == expected

    def test_report_accounting(self, world):
        reference, weights, config, eti, batch = world
        _, report = run_report(FuzzyMatcher(reference, weights, config, eti), batch)
        assert isinstance(report, BatchReport)
        assert report.total_queries == len(batch)
        assert report.unique_queries == len(set(batch))
        assert report.deduplicated_queries == len(batch) - len(set(batch))
        assert report.queries_per_second == len(batch)
        assert "cache_counters" not in report.as_dict()

    def test_per_query_stats_do_not_race(self, world):
        """Each query counts into its own stats, so per-query stats match
        the sequential run although every thread shares one matcher."""
        reference, weights, config, eti, batch = world
        sequential = FuzzyMatcher(reference, weights, config, eti)
        distinct = list(dict.fromkeys(batch))
        expected = [
            (stats.candidates_fetched, stats.eti_lookups, stats.fms_evaluations)
            for stats in (sequential.match(values).stats for values in distinct)
        ]
        matcher = FuzzyMatcher(reference, weights, config, eti)
        results = threaded_match_many(matcher, distinct, 4)
        got = [
            (r.stats.candidates_fetched, r.stats.eti_lookups, r.stats.fms_evaluations)
            for r in results
        ]
        assert got == expected

    def test_cache_counts_are_exact_under_threads(self, world):
        """Each query counts its own resident-store reads: the counts under
        four threads are the sequential run's, a read per verified
        candidate and no misses; naive scans read the relation, not the
        store, and count none."""
        reference, weights, config, eti, batch = world
        distinct = list(dict.fromkeys(batch))[:12]

        def counts(results):
            return [
                (
                    r.stats.reference_cache_hits,
                    r.stats.reference_cache_misses,
                    r.stats.candidates_fetched,
                )
                for r in results
            ]

        sequential = FuzzyMatcher(reference, weights, config, eti)
        expected = counts([sequential.match(values) for values in distinct])
        matcher = FuzzyMatcher(reference, weights, config, eti)
        assert counts(threaded_match_many(matcher, distinct, 4)) == expected
        assert all(hits >= fetched > 0 and not misses for hits, misses, fetched in expected)
        naive = threaded_match_many(matcher, distinct[:4], 2, strategy="naive")
        assert {(h, m) for h, m, _ in counts(naive)} == {(0, 0)}

    def test_from_matcher(self, world):
        """The perf ledger's call still yields a matcher over the same
        components, under the policy it passes and with its own registry."""
        reference, weights, config, eti, batch = world
        matcher = FuzzyMatcher(reference, weights, config, eti)
        policy = ResiliencePolicy()
        worker = BatchMatcher.from_matcher(
            matcher, jobs=2, resilience=policy, fail_fast=False, executor="thread"
        ).worker_matcher()
        assert worker.resilience is policy
        assert worker.registry is not matcher.registry
        assert result_view(worker.match_many(batch[:5])) == result_view(
            [matcher.match(values) for values in batch[:5]]
        )


class TestLazyColumnAverages:
    """An unseen token's weight is its column's average IDF, built on the
    provider's first unseen lookup.  Racing first lookups each build the
    same list locally and store it whole, so no thread reads a partial
    one: the providers need no single-threaded warm-up."""

    @pytest.mark.parametrize("kind", ["token", "hashed", "bounded", "eti"])
    def test_racing_first_lookups_agree(self, world, kind):
        reference = world[0]
        columns = reference.num_columns
        db = Database.in_memory()
        eti, _ = build_eti(
            db, reference, MatchConfig(q=3, scheme=SignatureScheme.QGRAMS_PLUS_TOKEN)
        )

        def fresh():
            if kind == "eti":
                return EtiWeightProvider(eti, len(reference), columns)
            cache = None
            if kind == "hashed":
                cache = HashedTokenFrequencyCache(len(reference), columns)
            elif kind == "bounded":
                cache = BoundedTokenFrequencyCache(len(reference), columns, 64)
            return build_frequency_cache(reference.scan_values(), columns, cache)

        unseen = "qqxqqzz"
        single = fresh()
        expected = [single.weight(unseen, column) for column in range(columns)]
        provider = fresh()
        start = threading.Barrier(8, timeout=30)

        def first_lookups(offset):
            start.wait()
            order = [(offset + step) % columns for step in range(columns)]
            return order, [provider.weight(unseen, column) for column in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-build as often as possible
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(first_lookups, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
            db.close()
        for order, values in outcomes:
            assert values == [expected[column] for column in order]


class TestBatchReportJson:
    def test_degraded_reasons_survive_to_json(self, world):
        """A budget-starved batch reports per-item degradation reasons."""
        reference, weights, config, eti, batch = world
        policy = ResiliencePolicy(max_page_fetches=0)
        matcher = FuzzyMatcher(reference, weights, config, eti, resilience=policy)
        _, report = run_report(matcher, batch[:6], strategy="basic", fail_fast=False)
        assert report.degraded_queries > 0
        payload = json.loads(report.to_json())
        assert payload["degraded_reasons"] == {
            "page_fetches": report.degraded_queries
        }
        assert payload["failed_types"] == {}
        assert payload["deduplicated_queries"] == report.deduplicated_queries
        assert payload["queries_per_second"] == report.queries_per_second
        assert "jobs" not in payload
        assert "cache_counters" not in payload

    def test_failed_types_counted(self):
        results = [
            failed_result(TransientIOError("flaky read")),
            failed_result(PageCorruptionError("bad page")),
            failed_result(TransientIOError("again")),
        ]
        report = BatchReport.from_results(results, 0.5)
        payload = json.loads(report.to_json(indent=2))
        assert payload["failed_types"] == {
            "PageCorruptionError": 1,
            "TransientIOError": 2,
        }
        assert payload["failed_queries"] == 3
        assert payload["queries_per_second"] == 6.0

    def test_from_results_over_a_mixed_batch(self, world):
        """Deduplicated, degraded and failed results, each counted once
        where it belongs: a replica is not unique, a degraded replica is
        still degraded, and a failure is unique but not degraded."""
        reference, weights, config, eti, batch = world
        starved = FuzzyMatcher(
            reference, weights, config, eti,
            resilience=ResiliencePolicy(max_page_fetches=0),
        )
        healthy = FuzzyMatcher(reference, weights, config, eti)
        degraded = starved.match_many([batch[0], batch[0]], strategy="basic")
        fine = healthy.match_many([batch[1], batch[1], batch[2]])
        failed = failed_result(TransientIOError("flaky read"))
        results = degraded + fine + [failed]
        assert [r.stats.deduplicated for r in results] == [
            False, True, False, True, False, False,
        ]
        assert [r.stats.degraded for r in results[:2]] == [True, True]
        report = BatchReport.from_results(results, 2.0)
        assert report.as_dict() == {
            "total_queries": 6,
            "unique_queries": 4,
            "deduplicated_queries": 2,
            "elapsed_seconds": 2.0,
            "queries_per_second": 3.0,
            "degraded_queries": 2,
            "failed_queries": 1,
            "degraded_reasons": {"page_fetches": 2},
            "failed_types": {"TransientIOError": 1},
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
        assert "jobs" not in payload
        assert "cache_counters" not in payload

    def test_jobs_flag_is_a_usage_error(self, csv_pair, tmp_path, capsys):
        reference, dirty = csv_pair
        argv = ["match", "--reference", str(reference), "--input", str(dirty)]
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv + ["--jobs", "4", "--out", str(tmp_path / "out.csv")])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err
