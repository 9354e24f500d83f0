"""End-to-end fuzzy matching: naive, basic, and OSC strategies."""

import random

import pytest

from repro.core.config import MatchConfig, SignatureScheme
from repro.core.matcher import FuzzyMatcher
from repro.core.reference import ReferenceTable
from repro.core.weights import build_frequency_cache
from repro.db.database import Database
from repro.eti.builder import build_eti

from tests.conftest import ORG_INPUTS


@pytest.fixture()
def org_matcher(org_reference, org_weights, paper_config, org_eti):
    return FuzzyMatcher(org_reference, org_weights, paper_config, org_eti)


class TestPaperScenarios:
    @pytest.mark.parametrize("strategy", ["naive", "basic", "osc"])
    @pytest.mark.parametrize("values,target", ORG_INPUTS[:3])
    def test_table2_inputs_find_r1(self, org_matcher, strategy, values, target):
        """I1–I3 must all resolve to R1 (Boeing Company) under fms."""
        result = org_matcher.match(values, strategy=strategy)
        assert result.best is not None
        assert result.best.tid == target

    def test_exact_match_scores_one(self, org_matcher):
        result = org_matcher.match(("Boeing Company", "Seattle", "WA", "98004"))
        assert result.best.tid == 1
        assert result.best.similarity == pytest.approx(1.0)

    def test_match_returns_reference_values(self, org_matcher):
        result = org_matcher.match(("Beoing Company", "Seattle", "WA", "98004"))
        assert result.best.values == ("Boeing Company", "Seattle", "WA", "98004")

    def test_i3_would_mislead_edit_distance(self, org_matcher):
        """The headline claim: fms sends I3 to R1 where ed picks R2."""
        result = org_matcher.match(("Boeing Corporation", "Seattle", "WA", "98004"))
        assert result.best.tid == 1


class TestQueryOptions:
    def test_k_returns_multiple(self, org_matcher):
        result = org_matcher.match(
            ("Beoing Company", "Seattle", "WA", "98004"), k=3, strategy="naive"
        )
        assert len(result.matches) == 3
        similarities = [m.similarity for m in result.matches]
        assert similarities == sorted(similarities, reverse=True)

    def test_k_limits_results(self, org_matcher):
        result = org_matcher.match(
            ("Beoing Company", "Seattle", "WA", "98004"), k=2, strategy="naive"
        )
        assert len(result.matches) == 2

    def test_min_similarity_filters(self, org_matcher):
        values = ("Beoing Company", "Seattle", "WA", "98004")
        loose = org_matcher.match(values, k=3, min_similarity=0.0, strategy="naive")
        strict = org_matcher.match(values, k=3, min_similarity=0.8, strategy="naive")
        assert len(strict.matches) < len(loose.matches)
        assert all(m.similarity >= 0.8 for m in strict.matches)

    def test_impossible_threshold_returns_empty(self, org_matcher):
        result = org_matcher.match(
            ("zzz qqq", "xxx", "yy", "11111"), min_similarity=0.99
        )
        assert result.matches == []

    @pytest.mark.parametrize("strategy", ["basic", "osc"])
    def test_indexed_threshold_filters_results(self, org_matcher, strategy):
        """A positive c exercises the admission optimization and the final
        similarity filter on the indexed paths."""
        values = ("Beoing Company", "Seattle", "WA", "98004")
        result = org_matcher.match(
            values, k=3, min_similarity=0.7, strategy=strategy
        )
        assert all(m.similarity >= 0.7 for m in result.matches)
        naive = org_matcher.match(values, k=3, min_similarity=0.7, strategy="naive")
        assert {m.tid for m in result.matches} <= {m.tid for m in naive.matches} | {
            m.tid for m in result.matches
        }
        # The known best match clears the threshold on all strategies.
        assert result.best is not None and result.best.tid == 1

    def test_unknown_strategy_rejected(self, org_matcher):
        with pytest.raises(ValueError, match="unknown strategy"):
            org_matcher.match(("a", "b", "c", "d"), strategy="magic")

    def test_wrong_arity_rejected(self, org_matcher):
        with pytest.raises(ValueError, match="columns"):
            org_matcher.match(("a", "b"))

    def test_indexed_strategy_requires_eti(self, org_reference, org_weights, paper_config):
        matcher = FuzzyMatcher(org_reference, org_weights, paper_config)
        with pytest.raises(ValueError, match="requires a built ETI"):
            matcher.match(("a", "b", "c", "d"), strategy="basic")
        # naive still works
        assert matcher.match(("a", "b", "c", "d"), strategy="naive") is not None

    def test_default_strategy_follows_config(self, org_reference, org_weights, org_eti, paper_config):
        osc_matcher = FuzzyMatcher(
            org_reference, org_weights, paper_config.with_(use_osc=True), org_eti
        )
        basic_matcher = FuzzyMatcher(
            org_reference, org_weights, paper_config.with_(use_osc=False), org_eti
        )
        values = ("Boeing Company", "Seattle", "WA", "98004")
        assert osc_matcher.match(values).stats.strategy == "osc"
        assert basic_matcher.match(values).stats.strategy == "basic"

    def test_all_null_input(self, org_matcher):
        result = org_matcher.match((None, None, None, None))
        assert result.matches == []

    def test_match_many_preserves_order(self, org_matcher):
        batch = [values for values, _ in ORG_INPUTS[:3]]
        results = org_matcher.match_many(batch)
        assert len(results) == 3
        singles = [org_matcher.match(values) for values in batch]
        for bulk, single in zip(results, singles):
            assert bulk.best.tid == single.best.tid
            assert bulk.best.similarity == single.best.similarity

    def test_match_many_forwards_options(self, org_matcher):
        results = org_matcher.match_many(
            [("Beoing Company", "Seattle", "WA", "98004")],
            k=3,
            strategy="naive",
        )
        assert len(results[0].matches) == 3
        assert results[0].stats.strategy == "naive"


class TestStatistics:
    def test_eti_lookups_counted(self, org_matcher):
        result = org_matcher.match(("Beoing Company", "Seattle", "WA", "98004"))
        assert result.stats.eti_lookups > 0

    def test_naive_counts_fms_evaluations(self, org_matcher):
        result = org_matcher.match(("a", "b", "c", "d"), strategy="naive")
        assert result.stats.fms_evaluations == 3  # one per reference tuple

    def test_elapsed_recorded(self, org_matcher):
        result = org_matcher.match(("a", "b", "c", "d"), strategy="naive")
        assert result.stats.elapsed_seconds > 0

    def test_fetches_bounded_by_admitted(self, org_matcher):
        result = org_matcher.match(("Beoing Company", "Seattle", "WA", "98004"))
        assert result.stats.candidates_fetched <= max(result.stats.tids_admitted, 1)


def build_random_world(seed, num_reference=60, num_queries=25, **config_kwargs):
    """A random small reference relation plus dirty queries against it."""
    rng = random.Random(seed)
    tokens = [
        "boeing", "company", "corporation", "united", "pacific", "airlines",
        "seattle", "tacoma", "portland", "spokane", "everett", "renton",
    ]
    states = ["wa", "or", "ca"]

    def make_name():
        return " ".join(rng.choices(tokens[:6], k=rng.randint(1, 3)))

    db = Database.in_memory()
    reference = ReferenceTable(db, "r", ["name", "city", "state"])
    rows = []
    for tid in range(num_reference):
        rows.append(
            (tid, (make_name(), rng.choice(tokens[6:]), rng.choice(states)))
        )
    reference.load(rows)
    weights = build_frequency_cache(reference.scan_values(), 3)
    config = MatchConfig(q=3, signature_size=2, **config_kwargs)
    eti, _ = build_eti(db, reference, config)
    matcher = FuzzyMatcher(reference, weights, config, eti)

    queries = []
    for _ in range(num_queries):
        _, values = rows[rng.randrange(len(rows))]
        dirty = []
        for value in values:
            chars = list(value)
            for _ in range(rng.randint(0, 2)):
                pos = rng.randrange(len(chars))
                chars[pos] = rng.choice("abcdefghijklmnop")
            dirty.append("".join(chars))
        queries.append(tuple(dirty))
    return matcher, queries


class TestStrategyEquivalence:
    """basic must agree with naive; osc must agree with basic.

    The indexed algorithms are *probabilistically* safe, so strict equality
    of the returned tid is only required up to similarity ties and min-hash
    misfortune; we require the returned similarity to match naive's best
    similarity almost always, and exactly for the basic strategy whose
    candidate pruning is deterministic given the ETI.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_basic_matches_naive_similarity(self, seed):
        matcher, queries = build_random_world(seed)
        mismatches = 0
        for values in queries:
            naive = matcher.match(values, strategy="naive")
            basic = matcher.match(values, strategy="basic")
            assert basic.best is not None
            if abs(basic.best.similarity - naive.best.similarity) > 1e-9:
                mismatches += 1
        assert mismatches <= 1  # min-hash can lose a candidate, rarely

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_osc_close_to_basic(self, seed):
        matcher, queries = build_random_world(seed)
        mismatches = 0
        for values in queries:
            basic = matcher.match(values, strategy="basic")
            osc = matcher.match(values, strategy="osc")
            assert osc.best is not None
            if abs(osc.best.similarity - basic.best.similarity) > 1e-9:
                mismatches += 1
        # The paper's permissive stopping bound may stop on a slightly
        # sub-optimal tuple occasionally.
        assert mismatches <= 3

    @pytest.mark.parametrize("scheme", list(SignatureScheme))
    def test_schemes_agree_on_clean_inputs(self, scheme):
        matcher, _ = build_random_world(3, scheme=scheme)
        for tid, values in list(matcher.reference.scan())[:15]:
            result = matcher.match(values)
            assert result.best.similarity == pytest.approx(1.0)
            assert result.best.tid == tid or (
                # Duplicate reference tuples can tie at similarity 1.0.
                matcher.reference.fetch(result.best.tid) == values
            )
