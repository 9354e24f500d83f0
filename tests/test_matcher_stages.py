"""The three query stages, each called directly (signature → probe → verify)."""

import dataclasses
import functools

import pytest

from repro.core.config import MatchConfig, TranspositionCost
from repro.core.fms import COUNTERS, prepare_input
from repro.core.kernels import COUNTERS as KERNEL_COUNTERS
from repro.core.matcher import FuzzyMatcher, MatchStats, QuerySignature
from repro.core.reference import ReferenceTable
from repro.core.tokens import TupleTokens
from repro.core.weights import build_frequency_cache
from repro.data.datasets import DatasetSpec, make_dataset
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.eti.builder import build_eti
from repro.eti.index import EtiEntry
from repro.obs.tracing import Tracer

from tests.conftest import SpentAfter, ZeroWeights, oracle_verify

I1 = ("Beoing Company", "Seattle", "WA", "98004")


@pytest.fixture()
def matcher(org_reference, org_weights, paper_config, org_eti):
    return FuzzyMatcher(org_reference, org_weights, paper_config, org_eti)


class UnitWeights(ZeroWeights):
    def weight(self, token, column):
        return 1.0


class FakeEti:
    """An ETI answering from a dict: gram -> tid-list."""

    def __init__(self, tid_lists):
        self.tid_lists = tid_lists

    def lookup(self, gram, coordinate, column):
        tids = self.tid_lists.get(gram)
        if tids is None:
            return None
        return EtiEntry(gram, coordinate, column, len(tids), tuple(tids))


def hand_signature(matcher, values, entries, floor=0.0):
    tokens = TupleTokens.from_values(values)
    return QuerySignature(
        prepared=prepare_input(tokens, matcher.weights, matcher.config),
        entries=entries,
        entry_weight=sum(e[0] for e in entries),
        floor=floor,
    )


class TestSignatureStage:
    def test_hands_off_weight_and_floor(self, matcher):
        query = matcher._stage_signature(I1, 0.5, use_osc=False)
        # w(u) = Σ w(t) over tok(u), one copy per (token, column); no column weights.
        tokens = query.prepared.tokens
        expected = sum(matcher.weights.weight(t, col) for t, col in tokens.all_tokens())
        assert query.weight == pytest.approx(expected)
        assert query.floor == 0.5 * query.weight - query.weight * (1 - 1 / matcher.config.q)
        assert query.entry_weight == sum(e[0] for e in query.entries)
        # Every column contributes signature entries.
        assert {e[3] for e in query.entries} == {0, 1, 2, 3}

    def test_osc_orders_by_decreasing_weight(self, matcher):
        basic = matcher._stage_signature(I1, 0.0, use_osc=False)
        osc = matcher._stage_signature(I1, 0.0, use_osc=True)
        weights = [e[0] for e in osc.entries]
        assert weights == sorted(weights, reverse=True)
        assert weights != [e[0] for e in basic.entries]
        assert sorted(osc.entries) == sorted(basic.entries)

    def test_ties_keep_token_order(self, org_reference, paper_config, org_eti):
        matcher = FuzzyMatcher(org_reference, UnitWeights(), paper_config, org_eti)
        basic = matcher._stage_signature(I1, 0.0, use_osc=False)
        osc = matcher._stage_signature(I1, 0.0, use_osc=True)
        # "wa" is one q-gram carrying its token's whole weight; every other
        # entry weighs half a token and keeps its original position.
        heavy = [e for e in basic.entries if e[2] == "wa"]
        assert osc.entries == heavy + [e for e in basic.entries if e[2] != "wa"]

    def test_all_zero_weights_exit_early(self, org_reference, paper_config, org_eti):
        matcher = FuzzyMatcher(org_reference, ZeroWeights(), paper_config, org_eti)
        assert matcher._stage_signature(("a", "b", "c", "d"), 0.0, use_osc=True) is None
        result = matcher.match(("a", "b", "c", "d"))
        assert result.matches == []
        assert result.stats.eti_lookups == 0


class TestProbeStage:
    ENTRIES = [(3.0, 1, "aaa", 0), (1.0, 2, "bbb", 0), (0.5, 1, "ccc", 0)]

    def fake(self, org_reference, org_weights, paper_config):
        eti = FakeEti({"aaa": [1], "bbb": [1, 2], "ccc": [3]})
        return FuzzyMatcher(org_reference, org_weights, paper_config, eti)

    def test_new_tids_admitted_only_while_they_can_reach_the_floor(
        self, org_reference, org_weights, paper_config
    ):
        matcher = self.fake(org_reference, org_weights, paper_config)
        query = hand_signature(matcher, I1, self.ENTRIES, floor=1.2)
        stats = MatchStats()
        outcome = matcher._stage_probe(query, 1, 0.0, False, None, {}, stats)
        # tid 3 first shows up with 0.5 left to gain: below the floor.
        assert outcome.score_table.scores == {1: 4.0, 2: 1.0}
        assert outcome.score_table.stats.tids_processed == 4
        assert outcome.score_table.stats.tids_admitted == 2
        assert outcome.lookups == 3
        assert outcome.matches is None and outcome.budget_reason is None
        assert stats.candidates_fetched == 0  # basic never fetches while probing

    def test_negative_floor_admits_everything(
        self, org_reference, org_weights, paper_config
    ):
        matcher = self.fake(org_reference, org_weights, paper_config)
        query = hand_signature(matcher, I1, self.ENTRIES, floor=-2.0)
        outcome = matcher._stage_probe(query, 1, 0.0, False, None, {}, MatchStats())
        assert set(outcome.score_table.scores) == {1, 2, 3}

    def test_osc_success_certifies_the_answer(self, matcher):
        query = matcher._stage_signature(I1, 0.0, use_osc=True)
        stats = MatchStats()
        fms_cache = {}
        outcome = matcher._stage_probe(query, 1, 0.0, True, None, fms_cache, stats)
        assert stats.osc_succeeded and stats.osc_fetch_attempts >= 1
        assert [m.tid for m in outcome.matches] == [1]
        assert outcome.matches[0].similarity == fms_cache[1][0]
        assert outcome.lookups < len(query.entries)  # short-circuited
        assert stats.candidates_fetched == len(fms_cache)

    def test_failed_stopping_test_keeps_probing(
        self, org_reference, org_weights, paper_config
    ):
        """R2 leads after one lookup, but its fms cannot clear the bound yet."""
        eti = FakeEti({"aaa": [2], "bbb": [1]})
        matcher = FuzzyMatcher(org_reference, org_weights, paper_config, eti)
        entries = [(1.0, 1, "aaa", 0), (1.0, 1, "bbb", 0), (1.0, 1, "ccc", 0)]
        query = hand_signature(matcher, I1, entries)
        stats = MatchStats()
        fms_cache = {}
        with Tracer().trace("t") as root:
            outcome = matcher._stage_probe(query, 1, 0.0, True, None, fms_cache, stats)
        assert outcome.matches is None and not stats.osc_succeeded
        assert stats.osc_fetch_attempts == 1 and outcome.lookups == 3
        assert outcome.score_table.scores == {2: 1.0, 1: 1.0}
        notes = root.children[0].annotations
        assert notes["osc_bound"] == pytest.approx(2.0 / query.weight)
        assert notes["osc_min_fms"] == fms_cache[2][0] < notes["osc_bound"]
        assert notes["osc_succeeded"] is False and notes["fetched"] == 1

    def test_a_later_stopping_test_can_succeed(
        self, org_reference, org_weights, paper_config
    ):
        eti = FakeEti({"aaa": [2], "bbb": [2], "ccc": [1]})
        matcher = FuzzyMatcher(org_reference, org_weights, paper_config, eti)
        entries = [(1.0, 1, "aaa", 0), (1.0, 1, "bbb", 0), (1.0, 1, "ccc", 0)]
        query = hand_signature(matcher, I1, entries)
        stats = MatchStats()
        outcome = matcher._stage_probe(query, 1, 0.0, True, None, {}, stats)
        assert stats.osc_fetch_attempts == 2 and stats.osc_succeeded
        assert [m.tid for m in outcome.matches] == [2]
        assert outcome.lookups == 2
        assert stats.candidates_fetched == 1  # the second attempt reused the fms

    def test_budget_exhaustion_stops_the_lookups(self, matcher):
        query = matcher._stage_signature(I1, 0.0, use_osc=False)
        outcome = matcher._stage_probe(
            query, 1, 0.0, False, SpentAfter(2), {}, MatchStats()
        )
        assert outcome.budget_reason == "deadline"
        assert outcome.lookups == 2
        assert outcome.matches is None


class TestVerifyStage:
    def query(self, matcher):
        return matcher._stage_signature(I1, 0.0, use_osc=False)

    def test_stops_when_the_next_bound_cannot_displace_the_kth(self, matcher):
        query = self.query(matcher)
        stats = MatchStats()
        candidates = [(1, query.weight), (2, 0.0), (3, 0.0)]
        with Tracer().trace("t") as root:
            matches = matcher._stage_verify(query, candidates, 1, 0.0, None, {}, stats)
        assert [m.tid for m in matches] == [1]
        assert stats.candidates_fetched == 1  # tids 2 and 3 never fetched
        notes = root.children[0].annotations
        assert notes["stopped"] == "cannot_displace_kth"
        assert notes["candidates"] == 3 and notes["fetched"] == 1

    def test_stops_when_the_bound_falls_below_the_threshold(self, matcher):
        query = self.query(matcher)
        stats = MatchStats()
        with Tracer().trace("t") as root:
            matches = matcher._stage_verify(query, [(2, 0.0)], 1, 0.95, None, {}, stats)
        assert matches == [] and stats.candidates_fetched == 0
        assert root.children[0].annotations["stopped"] == "bound_below_threshold"

    def test_budgeted_dp_prunes_a_loser_without_ranking_it(self, matcher):
        query = self.query(matcher)
        stats = MatchStats()
        # Full scores: both upper bounds are 1.0, so tid 2 must be verified —
        # under the cost budget the K-th (tid 1) sets.
        candidates = [(1, query.weight), (2, query.weight)]
        matches = matcher._stage_verify(query, candidates, 1, 0.0, None, {}, stats)
        assert [m.tid for m in matches] == [1]
        assert stats.candidates_fetched == 2
        assert stats.verify_budget_prunes == 1

    def test_dangling_tid_verifies_to_minus_one(self, matcher):
        query = self.query(matcher)
        stats = MatchStats()
        fms_cache = {}
        candidates = [(99, query.weight), (1, query.weight)]
        matches = matcher._stage_verify(query, candidates, 2, 0.0, None, fms_cache, stats)
        assert [m.tid for m in matches] == [1]
        assert fms_cache[99] == (-1.0, ())
        assert stats.candidates_fetched == 1  # the dangling tid fetched nothing

    def test_spent_budget_returns_best_so_far_flagged(self, matcher):
        query = self.query(matcher)
        stats = MatchStats()
        candidates = [(2, query.weight), (1, query.weight), (3, query.weight)]
        with Tracer().trace("t") as root:
            matches = matcher._stage_verify(
                query, candidates, 3, 0.0, SpentAfter(1), {}, stats
            )
        # The first candidate is never polled for; the second poll is spent.
        assert [m.tid for m in matches] == [1, 2]
        assert stats.degraded and stats.degraded_reason == "deadline"
        assert root.children[0].annotations["stopped"] == "budget"


@pytest.fixture(scope="module")
def world_2k():
    customers = generate_customers(2000, seed=2003, unique=True)
    rows = [(c.tid, c.values) for c in customers]
    db = Database.in_memory()
    reference = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
    reference.load(rows)
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    eti, _ = build_eti(db, reference, MatchConfig())
    dataset = make_dataset(rows, DatasetSpec.preset("D2"), 30, seed=17)
    inputs = [d.values for d in dataset.inputs]
    yield reference, weights, eti, inputs
    db.close()


SWAPS_WEIGHTED = MatchConfig(
    allow_transpositions=True,
    transposition_cost=TranspositionCost.MINIMUM,
    column_weights=(2.0, 1.0, 0.5, 1.5),
)
CONFIGS, CONFIG_IDS = [MatchConfig(), SWAPS_WEIGHTED], ["plain", "swaps_weighted"]


class TestVerifyOracle:
    """The one-loop verify stage equals the per-candidate oracle: answers,
    every ``MatchStats`` field, and the fms DP / bound-prune counters."""

    def run(self, matcher, values, **kwargs):
        before = COUNTERS.snapshot()
        result = matcher.match(values, **kwargs)
        after = COUNTERS.snapshot()
        stats = dataclasses.asdict(result.stats)
        del stats["elapsed_seconds"]
        work = tuple(now - then for now, then in zip(after, before))
        return result.matches, stats, work

    def pair(self, world_2k, config):
        reference, weights, eti, _ = world_2k
        matcher = FuzzyMatcher(reference, weights, config, eti)
        oracle = FuzzyMatcher(reference, weights, config, eti)
        oracle._stage_verify = functools.partial(oracle_verify, oracle)
        return matcher, oracle

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("c", [0.0, 0.6])
    @pytest.mark.parametrize("strategy", ["basic", "osc"])
    def test_equals_the_per_candidate_loop(self, world_2k, config, k, c, strategy):
        matcher, oracle = self.pair(world_2k, config)
        pruned = 0
        for values in world_2k[3]:
            kwargs = dict(k=k, min_similarity=c, strategy=strategy)
            expected = self.run(oracle, values, **kwargs)
            assert self.run(matcher, values, **kwargs) == expected
            pruned += expected[1]["verify_budget_prunes"]
        if c == 0.0:
            assert pruned > 0  # the budgets were exercised

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    @pytest.mark.parametrize("extra_polls", [0, 1, 5, 40])
    def test_equals_it_when_the_deadline_runs_out(self, world_2k, config, extra_polls):
        """``basic`` polls once per lookup, then once per candidate after
        the first: the deadline runs out at the start of verify or in it."""
        matcher, oracle = self.pair(world_2k, config)
        degraded = 0
        for values in world_2k[3]:
            lookups = len(matcher._stage_signature(values, 0.0, use_osc=False).entries)
            sides = [
                self.run(side, values, k=3, strategy="basic",
                         deadline=SpentAfter(lookups + extra_polls))
                for side in (oracle, matcher)
            ]
            assert sides[1] == sides[0]
            degraded += sides[0][1]["degraded"]
        assert degraded > 0


class TestOrderIndependence:
    """No query leaves state behind that changes a later one: every
    verification memo lives and dies with its query."""

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    @pytest.mark.parametrize("strategy", ["basic", "osc"])
    def test_forward_and_reverse_passes_agree_per_input(self, world_2k, config, strategy):
        reference, weights, eti, inputs = world_2k
        matcher = FuzzyMatcher(reference, weights, config, eti)

        def run(values):
            before = COUNTERS.snapshot() + KERNEL_COUNTERS.snapshot()
            result = matcher.match(values, k=3, strategy=strategy)
            after = COUNTERS.snapshot() + KERNEL_COUNTERS.snapshot()
            stats = dataclasses.asdict(result.stats)
            del stats["elapsed_seconds"]
            work = tuple(now - then for now, then in zip(after, before))
            return result.matches, stats, work

        forward = [run(values) for values in inputs]
        reverse = [run(values) for values in reversed(inputs)][::-1]
        for values, first, second in zip(inputs, forward, reverse):
            assert second == first, values
        assert any(work[0] for _, _, work in forward)  # some DP ran
