"""The fms similarity function — §3's definitions and worked example."""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MatchConfig, TranspositionCost
from repro.core.fms import (
    COUNTERS,
    cost_lower_bound,
    fms,
    fms_budgeted,
    prepare_input,
    transformation_cost,
    tuple_transformation_cost,
)
from repro.core.kernels import classic_distance
from repro.core.strings import cached_edit_distance, clear_edit_distance_caches
from repro.core.tokens import TupleTokens


class UnitWeights:
    """w(t, i) = 1 for every token — the paper's worked-example setting."""

    def weight(self, token, column):
        return 1.0

    def frequency(self, token, column):
        return 1


class MappedWeights:
    """Explicit (token, column) -> weight map; unknown tokens get 1.0."""

    def __init__(self, mapping):
        self.mapping = mapping

    def weight(self, token, column):
        return self.mapping.get((token, column), 1.0)

    def frequency(self, token, column):
        return 1


UNIT = UnitWeights()
CONFIG3 = MatchConfig(q=3, signature_size=2)


class TestTransformationCost:
    def test_identical_sequences_cost_zero(self):
        assert transformation_cost(("a", "b"), ("a", "b"), 0, UNIT, CONFIG3) == 0.0

    def test_replacement_cost_is_ed_times_weight(self):
        # replace 'beoing' by 'boeing': ed = 2/6.
        cost = transformation_cost(("beoing",), ("boeing",), 0, UNIT, CONFIG3)
        assert cost == pytest.approx(2 / 6)

    def test_paper_i3_r1_name_cost(self):
        """§3.1: tc(u[1], v[1]) = 0.33 + 0.64 ≈ 0.97 with unit weights."""
        cost = transformation_cost(
            ("beoing", "corporation"), ("boeing", "company"), 0, UNIT, CONFIG3
        )
        assert cost == pytest.approx(2 / 6 + 7 / 11, abs=1e-9)

    def test_deletion_costs_full_weight(self):
        cost = transformation_cost(("extra",), (), 0, UNIT, CONFIG3)
        assert cost == pytest.approx(1.0)

    def test_insertion_costs_cins_weight(self):
        cost = transformation_cost((), ("missing",), 0, UNIT, CONFIG3)
        assert cost == pytest.approx(CONFIG3.token_insertion_factor)

    def test_insert_delete_asymmetry(self):
        """Absent tokens are penalized less than spurious ones (§3.1)."""
        insert = transformation_cost((), ("tok",), 0, UNIT, CONFIG3)
        delete = transformation_cost(("tok",), (), 0, UNIT, CONFIG3)
        assert insert < delete

    def test_weights_scale_costs(self):
        weights = MappedWeights({("corporation", 0): 0.1})
        cheap = transformation_cost(("corporation",), ("company",), 0, weights, CONFIG3)
        expensive = transformation_cost(("boeing",), ("bon",), 0, weights, CONFIG3)
        # With IDF-style weights, replacing frequent 'corporation' is
        # cheaper than replacing rare 'boeing' despite larger edit distance.
        assert cheap < expensive

    def test_empty_to_empty(self):
        assert transformation_cost((), (), 0, UNIT, CONFIG3) == 0.0

    def test_column_weight_scales(self):
        base = transformation_cost(("a",), ("bb",), 0, UNIT, CONFIG3)
        doubled = transformation_cost(
            ("a",), ("bb",), 0, UNIT, CONFIG3, column_weight=2.0
        )
        assert doubled == pytest.approx(2 * base)

    def test_replacement_beats_delete_insert_when_similar(self):
        # 'beoing' -> 'boeing' should use replacement (0.33), not delete +
        # insert (1.0 + 0.5).
        cost = transformation_cost(("beoing",), ("boeing",), 0, UNIT, CONFIG3)
        assert cost < 1.0

    def test_delete_insert_beats_replacement_when_dissimilar(self):
        # Dissimilar same-length tokens: replacement ed = 1.0 * w = 1.0;
        # the DP should never pay more than that.
        cost = transformation_cost(("aaaa",), ("zzzz",), 0, UNIT, CONFIG3)
        assert cost <= 1.0


class TestFms:
    def test_paper_worked_example(self):
        """fms(I3, R1) = 1 − 0.97/5.0 ≈ 0.806 with unit weights."""
        i3 = ("Beoing Corporation", "Seattle", "WA", "98004")
        r1 = ("Boeing Company", "Seattle", "WA", "98004")
        similarity = fms(i3, r1, UNIT, CONFIG3)
        expected = 1 - (2 / 6 + 7 / 11) / 5.0
        assert similarity == pytest.approx(expected, abs=1e-9)

    def test_exact_match_is_one(self):
        values = ("Boeing Company", "Seattle", "WA", "98004")
        assert fms(values, values, UNIT, CONFIG3) == 1.0

    def test_case_insensitive(self):
        assert fms(("BOEING",), ("boeing",), UNIT, CONFIG3) == 1.0

    def test_bounded_below_by_zero(self):
        # Cost can exceed w(u); similarity must clamp at 0.
        similarity = fms(("a",), ("completely different tokens here",), UNIT, CONFIG3)
        assert similarity == 0.0

    def test_null_input_column(self):
        u = ("Company Beoing", "Seattle", None, "98014")
        v = ("Boeing Company", "Seattle", "WA", "98014")
        similarity = fms(u, v, UNIT, CONFIG3)
        assert 0.0 < similarity < 1.0

    def test_empty_input_tuple(self):
        assert fms((None,), (None,), UNIT, CONFIG3) == 1.0
        assert fms((None,), ("something",), UNIT, CONFIG3) == 0.0

    def test_asymmetry(self):
        u = ("boeing",)
        v = ("boeing company corporation",)
        assert fms(u, v, UNIT, CONFIG3) != fms(v, u, UNIT, CONFIG3)

    def test_accepts_tuple_tokens(self):
        u = TupleTokens.from_values(("boeing",))
        v = TupleTokens.from_values(("boeing",))
        assert fms(u, v, UNIT, CONFIG3) == 1.0

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fms(("a",), ("a", "b"), UNIT, CONFIG3)

    def test_arity_checked_for_a_zero_weight_input(self):
        # w(u) = 0 must not short-circuit past the column-count check.
        with pytest.raises(ValueError, match="same number of columns"):
            fms((None, None), ("zzz",), UNIT, CONFIG3)

    def test_default_config(self):
        assert fms(("x",), ("x",), UNIT) == 1.0

    @given(
        st.lists(
            st.one_of(st.none(), st.text(alphabet="abcd ", max_size=15)),
            min_size=1,
            max_size=3,
        ).map(tuple)
    )
    @settings(max_examples=80, deadline=None)
    def test_self_similarity(self, values):
        assert fms(values, values, UNIT, CONFIG3) == pytest.approx(1.0)

    @given(
        st.lists(st.text(alphabet="abcd ", max_size=15), min_size=2, max_size=2).map(tuple),
        st.lists(st.text(alphabet="abcd ", max_size=15), min_size=2, max_size=2).map(tuple),
    )
    @settings(max_examples=80, deadline=None)
    def test_range(self, u, v):
        assert 0.0 <= fms(u, v, UNIT, CONFIG3) <= 1.0


class TestTranspositions:
    def test_transposition_cheaper_than_two_replacements(self):
        config = CONFIG3.with_(allow_transpositions=True)
        without = fms(("company boeing",), ("boeing company",), UNIT, CONFIG3)
        with_swap = fms(("company boeing",), ("boeing company",), UNIT, config)
        assert with_swap > without

    def test_transposition_cost_functions(self):
        # Weights chosen so the swap beats insert+delete (1.5 * 0.8 = 1.2)
        # under every cost function, making each g observable.
        weights = MappedWeights({("a", 0): 0.8, ("b", 0): 0.9})
        u, v = ("b", "a"), ("a", "b")
        costs = {}
        for kind in TranspositionCost:
            config = CONFIG3.with_(
                allow_transpositions=True,
                transposition_cost=kind,
                transposition_constant=0.3,
            )
            costs[kind] = transformation_cost(u, v, 0, weights, config)
        assert costs[TranspositionCost.MINIMUM] == pytest.approx(0.8)
        assert costs[TranspositionCost.AVERAGE] == pytest.approx(0.85)
        assert costs[TranspositionCost.MAXIMUM] == pytest.approx(0.9)
        assert costs[TranspositionCost.CONSTANT] == pytest.approx(0.3)

    def test_transposition_only_adjacent_equal_pairs(self):
        config = CONFIG3.with_(allow_transpositions=True)
        # ('a','b') vs ('b','a') qualifies; ('a','b') vs ('c','a') does not.
        swap = transformation_cost(("a", "b"), ("b", "a"), 0, UNIT, config)
        no_swap = transformation_cost(("a", "b"), ("c", "a"), 0, UNIT, config)
        assert swap < no_swap

    def test_paper_i4_needs_transposition(self):
        """I4 [Company Beoing, ...]: with transpositions fms recognizes R1."""
        config = CONFIG3.with_(allow_transpositions=True)
        i4 = ("Company Beoing", "Seattle", None, "98014")
        r1 = ("Boeing Company", "Seattle", "WA", "98004")
        plain = fms(i4, r1, UNIT, CONFIG3)
        with_swap = fms(i4, r1, UNIT, config)
        assert with_swap > plain


class TestColumnWeights:
    def test_uniform_weights_match_plain(self):
        config = CONFIG3.with_(column_weights=(1.0, 1.0))
        u, v = ("beoing", "seattle"), ("boeing", "tacoma")
        assert fms(u, v, UNIT, config) == pytest.approx(fms(u, v, UNIT, CONFIG3))

    def test_upweighted_column_dominates(self):
        # Error in column 0 only; upweighting column 0 lowers similarity.
        u, v = ("beoing", "seattle"), ("boeing", "seattle")
        heavy = CONFIG3.with_(column_weights=(10.0, 1.0))
        light = CONFIG3.with_(column_weights=(1.0, 10.0))
        assert fms(u, v, UNIT, heavy) < fms(u, v, UNIT, light)

    def test_wrong_arity_rejected(self):
        config = CONFIG3.with_(column_weights=(1.0,))
        with pytest.raises(ValueError):
            fms(("a", "b"), ("a", "b"), UNIT, config)

    def test_input_weight_uses_column_weights(self):
        tokens = TupleTokens.from_values(("a", "b"))
        config = CONFIG3.with_(column_weights=(3.0, 1.0))
        # normalized to average 1: (1.5, 0.5) -> total weight 2.0.
        assert prepare_input(tokens, UNIT, config).weight == pytest.approx(2.0)


class TestTupleTransformationCost:
    def test_sums_columns(self):
        u = TupleTokens.from_values(("beoing", "seatle"))
        v = TupleTokens.from_values(("boeing", "seattle"))
        total = tuple_transformation_cost(u, v, UNIT, CONFIG3)
        col0 = transformation_cost(("beoing",), ("boeing",), 0, UNIT, CONFIG3)
        col1 = transformation_cost(("seatle",), ("seattle",), 1, UNIT, CONFIG3)
        assert total == pytest.approx(col0 + col1)

    def test_arity_mismatch(self):
        u = TupleTokens.from_values(("a",))
        v = TupleTokens.from_values(("a", "b"))
        with pytest.raises(ValueError):
            tuple_transformation_cost(u, v, UNIT, CONFIG3)


def textbook_transformation_cost(u, v, column, weights, config, column_weight):
    """§3.1's weighted-token edit DP (plus §5.3's swap), one full table.

    Written independently of :mod:`repro.core.fms`: no budget, no
    shortcuts, no memo, token distances straight from the classic kernel.
    """

    def ed(a, b):
        longest = max(len(a), len(b))
        return classic_distance(a, b) / longest if longest else 0.0

    def g(w1, w2):
        kind = config.transposition_cost
        if kind is TranspositionCost.AVERAGE:
            return (w1 + w2) / 2.0
        if kind is TranspositionCost.MINIMUM:
            return min(w1, w2)
        if kind is TranspositionCost.MAXIMUM:
            return max(w1, w2)
        return config.transposition_constant

    wu = [weights.weight(t, column) * column_weight for t in u]
    wv = [weights.weight(t, column) * column_weight for t in v]
    c_ins = config.token_insertion_factor
    table = [[0.0] * (len(v) + 1) for _ in range(len(u) + 1)]
    for j in range(1, len(v) + 1):
        table[0][j] = table[0][j - 1] + c_ins * wv[j - 1]
    for i in range(1, len(u) + 1):
        table[i][0] = table[i - 1][0] + wu[i - 1]
        for j in range(1, len(v) + 1):
            options = [
                table[i - 1][j] + wu[i - 1],
                table[i][j - 1] + c_ins * wv[j - 1],
                table[i - 1][j - 1] + ed(u[i - 1], v[j - 1]) * wu[i - 1],
            ]
            if config.allow_transpositions and i >= 2 and j >= 2:
                options.append(
                    table[i - 2][j - 2]
                    + g(wu[i - 2], wu[i - 1])
                    + ed(u[i - 1], v[j - 2]) * wu[i - 1]
                    + ed(u[i - 2], v[j - 1]) * wu[i - 2]
                )
            table[i][j] = min(options)
    return table[len(u)][len(v)]


class SeededWeights:
    """Reproducible non-uniform weights in {0, 0.25, …, 3}, zeros included."""

    def __init__(self, seed):
        self.seed = seed

    def weight(self, token, column):
        key = f"{self.seed}:{column}:{token}".encode()
        return (zlib.crc32(key) % 13) * 0.25

    def frequency(self, token, column):
        return 1


# Short tokens over a tiny alphabet repeat often (duplicates within a
# column, shared tokens across tuples); é and 日 exercise non-ASCII.
_VALUES = st.one_of(st.none(), st.just(""), st.text(alphabet="abé日 ", max_size=14))


@st.composite
def bound_cases(draw):
    columns = draw(st.integers(1, 3))
    u = TupleTokens.from_values(draw(st.lists(_VALUES, min_size=columns, max_size=columns)))
    v = TupleTokens.from_values(draw(st.lists(_VALUES, min_size=columns, max_size=columns)))
    config = MatchConfig(
        q=3,
        token_insertion_factor=draw(st.sampled_from((0.0, 0.5, 1.0))),
        column_weights=draw(
            st.none()
            | st.lists(st.floats(0.1, 5.0), min_size=columns, max_size=columns).map(tuple)
        ),
        allow_transpositions=draw(st.booleans()),
        transposition_cost=draw(st.sampled_from(list(TranspositionCost))),
        transposition_constant=draw(st.sampled_from((0.0, 0.3, 2.0))),
    )
    weights = SeededWeights(draw(st.integers(0, 7)))
    memos = draw(st.sampled_from(("cleared", "exact")))
    return u, v, config, weights, memos


def set_memos(u, v, memos):
    """Empty the edit-distance memo, then optionally pre-warm it."""
    clear_edit_distance_caches()
    if memos == "exact":
        for col in range(u.num_columns):
            for a in u.sequences[col]:
                for b in v.sequences[col]:
                    cached_edit_distance(a, b)


def within_margin(bound, cost):
    """``bound ≤ cost`` up to the float margin ``fms_budgeted`` allows."""
    return bound <= cost * (1.0 + 1e-9) + 1e-12


class TestCostLowerBound:
    def test_deletions_only_is_exact(self):
        u = prepare_input(TupleTokens.from_values(("x y",)), UNIT, CONFIG3)
        v = TupleTokens.from_values((None,))
        assert cost_lower_bound(u, v, UNIT, CONFIG3) == 2.0
        assert tuple_transformation_cost(u, v, UNIT, CONFIG3) == 2.0

    def test_forced_insertions_are_charged(self):
        u = prepare_input(TupleTokens.from_values(("boeing",)), UNIT, CONFIG3)
        v = TupleTokens.from_values(("boeing company corp",))
        # 'boeing' is shared (free); two extra reference tokens must be inserted.
        assert cost_lower_bound(u, v, UNIT, CONFIG3) == pytest.approx(1.0)
        assert tuple_transformation_cost(u, v, UNIT, CONFIG3) == pytest.approx(1.0)

    def test_stops_summing_past_the_limit(self):
        u = prepare_input(TupleTokens.from_values(("a b c d",)), UNIT, CONFIG3)
        v = TupleTokens.from_values((None,))
        assert cost_lower_bound(u, v, UNIT, CONFIG3, limit=1.5) == 2.0

    def test_prune_before_the_dp_is_counted(self):
        u = TupleTokens.from_values(("qqqq rrrr", "seattle"))
        v = TupleTokens.from_values(("zz", "seattle"))
        before = (COUNTERS.bound_prunes, COUNTERS.dp_cells)
        similarity, pruned = fms_budgeted(u, v, UNIT, CONFIG3, cost_budget=0.5)
        assert pruned and similarity < 1.0 - 0.5 / 3.0
        assert COUNTERS.bound_prunes == before[0] + 1
        assert COUNTERS.dp_cells == before[1]  # no DP ran
        assert fms(u, v, UNIT, CONFIG3) <= similarity

    @given(bound_cases(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_bound_never_exceeds_the_exact_cost(self, case, dp_first):
        u, v, config, weights, memos = case
        set_memos(u, v, memos)
        prepared = prepare_input(u, weights, config)
        if dp_first:
            # The DP fills the memos (and the prepared input's distance
            # dicts through the bound below) before the bound is taken.
            exact = tuple_transformation_cost(prepared, v, weights, config)
            bound = cost_lower_bound(prepared, v, weights, config)
        else:
            bound = cost_lower_bound(prepared, v, weights, config)
            exact = tuple_transformation_cost(prepared, v, weights, config)
        assert exact == tuple_transformation_cost(u, v, weights, config)
        assert within_margin(bound, exact), (bound, exact)

    @given(bound_cases(), st.floats(0.0, 1.5))
    @settings(max_examples=300, deadline=None)
    def test_a_bound_over_the_budget_means_the_dp_prunes_too(self, case, fraction):
        u, v, config, weights, memos = case
        exact = tuple_transformation_cost(u, v, weights, config)
        set_memos(u, v, memos)
        prepared = prepare_input(u, weights, config)
        budget = exact * fraction
        limit = budget * (1.0 + 1e-9) + 1e-12
        if cost_lower_bound(prepared, v, weights, config, limit) > limit:
            assert tuple_transformation_cost(prepared, v, weights, config, budget) > budget
            if budget < prepared.weight:
                assert fms_budgeted(prepared, v, weights, config, cost_budget=budget)[1]


@st.composite
def token_sequences(draw):
    """Two columns' token sequences, mostly drawn from one small pool so
    that shared tokens, duplicates and swappable pairs are common."""
    pool = draw(st.lists(st.text(alphabet="abcé日", min_size=1, max_size=7), min_size=1, max_size=4))
    token = st.sampled_from(pool) | st.text(alphabet="abcé日", min_size=1, max_size=7)
    return draw(st.lists(token, max_size=5)), draw(st.lists(token, max_size=5))


class TestTransformationCostIsTheTextbookDp:
    @given(
        token_sequences(),
        st.integers(0, 50),
        st.sampled_from((0.0, 0.25, 0.5, 1.0)),
        st.sampled_from([None, *TranspositionCost]),
        st.sampled_from((0.0, 0.3, 2.0)),
        st.sampled_from((1.0, 0.4, 2.5)),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_textbook_dp(
        self, sequences, seed, c_ins, transposition, constant, column_weight
    ):
        u, v = sequences
        config = MatchConfig(
            q=3,
            token_insertion_factor=c_ins,
            allow_transpositions=transposition is not None,
            transposition_cost=transposition or TranspositionCost.AVERAGE,
            transposition_constant=constant,
        )
        weights = SeededWeights(seed)
        expected = textbook_transformation_cost(u, v, 1, weights, config, column_weight)
        clear_edit_distance_caches()
        for memo in ("cleared", "warm"):
            got = transformation_cost(u, v, 1, weights, config, column_weight=column_weight)
            assert got == expected, (memo, got, expected)
