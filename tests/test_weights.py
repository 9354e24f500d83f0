"""IDF weights and the three token-frequency cache variants (§3, §4.4.1)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tokens import TupleTokens
from repro.core.weights import (
    BoundedTokenFrequencyCache,
    HashedTokenFrequencyCache,
    TokenFrequencyCache,
    build_frequency_cache,
)

ORG_VALUES = [
    ("Boeing Company", "Seattle", "WA", "98004"),
    ("Bon Corporation", "Seattle", "WA", "98014"),
    ("Companions", "Seattle", "WA", "98024"),
]


@pytest.fixture()
def cache():
    return build_frequency_cache(ORG_VALUES, 4)


class TestIdfWeights:
    def test_frequency_counts_tuples(self, cache):
        assert cache.frequency("seattle", 1) == 3
        assert cache.frequency("boeing", 0) == 1

    def test_idf_formula(self, cache):
        assert cache.weight("boeing", 0) == pytest.approx(math.log(3 / 1))
        assert cache.weight("seattle", 1) == pytest.approx(math.log(3 / 3))

    def test_ubiquitous_token_weighs_zero(self, cache):
        assert cache.weight("wa", 2) == 0.0

    def test_rare_token_outweighs_frequent(self):
        values = [("corporation boeing",)] + [("corporation filler%d" % i,) for i in range(9)]
        cache = build_frequency_cache(values, 1)
        assert cache.weight("boeing", 0) > cache.weight("corporation", 0)

    def test_unseen_token_gets_column_average(self, cache):
        # 'beoing' never occurs in column 0: weight = average IDF there.
        name_tokens = ["boeing", "company", "bon", "corporation", "companions"]
        average = sum(cache.weight(t, 0) for t in name_tokens) / len(name_tokens)
        assert cache.weight("beoing", 0) == pytest.approx(average)

    def test_column_identity(self, cache):
        # 'seattle' is frequent in the city column; unseen in name column.
        assert cache.weight("seattle", 1) != cache.weight("seattle", 0)

    def test_token_in_one_tuple_counted_once(self):
        # Duplicate token inside one attribute value counts once.
        cache = build_frequency_cache([("new new york",), ("boston",)], 1)
        assert cache.frequency("new", 0) == 1

    def test_tuple_weight_sums_tokens(self, cache):
        tokens = TupleTokens.from_values(ORG_VALUES[0])
        expected = (
            cache.weight("boeing", 0)
            + cache.weight("company", 0)
            + cache.weight("seattle", 1)
            + cache.weight("wa", 2)
            + cache.weight("98004", 3)
        )
        assert cache.tuple_weight(tokens) == pytest.approx(expected)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            TokenFrequencyCache(0, 1)

    def test_set_frequency_twice_rejected(self):
        cache = TokenFrequencyCache(10, 1)
        cache.set_frequency("a", 0, 1)
        with pytest.raises(ValueError):
            cache.set_frequency("a", 0, 2)

    def test_zero_frequency_rejected(self):
        cache = TokenFrequencyCache(10, 1)
        with pytest.raises(ValueError):
            cache.set_frequency("a", 0, 0)

    def test_num_entries_and_distinct(self, cache):
        # name column: boeing, company, bon, corporation, companions.
        assert cache.distinct_tokens(0) == 5
        assert cache.num_entries == 5 + 1 + 1 + 3  # name + city + state + zips


class TestHashedCache:
    def test_weights_match_plain_cache(self, cache):
        hashed = HashedTokenFrequencyCache(3, 4)
        build_frequency_cache(ORG_VALUES, 4, cache=hashed)
        for token, column in [
            ("boeing", 0),
            ("seattle", 1),
            ("wa", 2),
            ("98004", 3),
            ("unseen-token", 0),
        ]:
            assert hashed.weight(token, column) == pytest.approx(
                cache.weight(token, column)
            )

    def test_duplicate_rejected(self):
        hashed = HashedTokenFrequencyCache(3, 1)
        hashed.set_frequency("a", 0, 1)
        with pytest.raises(ValueError):
            hashed.set_frequency("a", 0, 1)

    def test_num_entries(self):
        hashed = HashedTokenFrequencyCache(3, 1)
        hashed.set_frequency("a", 0, 1)
        hashed.set_frequency("b", 0, 2)
        assert hashed.num_entries == 2


class TestBoundedCache:
    def test_collisions_merge_counts(self):
        bounded = BoundedTokenFrequencyCache(100, 1, max_entries=1)
        bounded.add_frequency("a", 0, 3)
        bounded.add_frequency("b", 0, 4)
        # Single bucket: both tokens see the merged frequency.
        assert bounded.frequency("a", 0) == 7
        assert bounded.frequency("b", 0) == 7

    def test_large_table_behaves_like_exact(self):
        bounded = BoundedTokenFrequencyCache(3, 4, max_entries=100_000)
        build_frequency_cache(ORG_VALUES, 4, cache=bounded)
        assert bounded.frequency("seattle", 1) == 3
        assert bounded.frequency("boeing", 0) == 1

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            BoundedTokenFrequencyCache(10, 1, max_entries=0)

    def test_collision_shrinks_weight_of_rare_token(self):
        """The §4.4.1 hazard: collisions make rare tokens look frequent."""
        exact = TokenFrequencyCache(1000, 1)
        exact.set_frequency("rare", 0, 1)
        bounded = BoundedTokenFrequencyCache(1000, 1, max_entries=1)
        bounded.add_frequency("rare", 0, 1)
        bounded.add_frequency("frequent", 0, 500)
        assert bounded.weight("rare", 0) < exact.weight("rare", 0)


class TestBuildFrequencyCache:
    def test_counts_scanned_tuples(self):
        cache = build_frequency_cache(ORG_VALUES, 4)
        assert cache.num_tuples == 3

    def test_none_values_skipped(self):
        cache = build_frequency_cache([("a", None), ("a", "b")], 2)
        assert cache.frequency("a", 0) == 2
        assert cache.frequency("b", 1) == 1

    def test_mismatched_num_tuples_rejected(self):
        pre_sized = TokenFrequencyCache(5, 1)
        with pytest.raises(ValueError):
            build_frequency_cache([("a",)], 1, cache=pre_sized, num_tuples=5)


def per_entry_averages(cache):
    """Column averages by the textbook loop: one IDF per vocabulary entry."""
    totals = [0.0] * cache.num_columns
    counts = [0] * cache.num_columns
    for column, column_map in enumerate(cache._frequencies):
        for freq in column_map.values():
            totals[column] += max(cache.idf(freq), 0.0)
            counts[column] += 1
    fallback = math.log(cache.num_tuples) if cache.num_tuples > 1 else 1.0
    return [
        totals[c] / counts[c] if counts[c] else fallback
        for c in range(cache.num_columns)
    ]


_WORDS = st.sampled_from(["acme", "boing", "bon", "corp", "wa", "or", "kent", "98004"])
_TUPLES = st.tuples(
    st.lists(_WORDS, max_size=3).map(" ".join),
    st.one_of(st.none(), _WORDS),
)


class TestIncrementalMaintenance:
    @settings(max_examples=60, deadline=None)
    @given(
        base=st.lists(_TUPLES, min_size=1, max_size=6),
        steps=st.lists(st.tuples(st.booleans(), _TUPLES, st.integers(0, 50)), max_size=25),
    )
    def test_average_weight_is_the_per_entry_loop(self, base, steps):
        cache = build_frequency_cache(base, 2)
        stored = list(base)
        for add, values, pick in steps:
            if add or not stored:
                cache.add_tuple(values)
                stored.append(values)
            else:
                cache.remove_tuple(stored.pop(pick % len(stored)))
            expected = per_entry_averages(cache)
            assert [repr(cache.average_weight(c)) for c in range(2)] == [
                repr(average) for average in expected
            ]

    def test_emptied_relation_counts_from_zero(self):
        cache = build_frequency_cache([("acme", "wa")], 2)
        cache.remove_tuple(("acme", "wa"))
        assert cache.num_tuples == 0
        cache.add_tuple(("boing", "wa"))
        rebuilt = build_frequency_cache([("boing", "wa")], 2)
        assert cache.num_tuples == rebuilt.num_tuples == 1
        for token, column in [("boing", 0), ("wa", 1), ("acme", 0), ("unseen", 1)]:
            assert repr(cache.weight(token, column)) == repr(
                rebuilt.weight(token, column)
            ), (token, column)
        assert cache.weight("boing", 0) == 0.0

    def test_removing_from_an_empty_relation_is_refused(self):
        cache = build_frequency_cache([("acme", "wa")], 2)
        cache.remove_tuple(("acme", "wa"))
        with pytest.raises(ValueError, match="no reference tuple"):
            cache.remove_tuple(("acme", "wa"))
