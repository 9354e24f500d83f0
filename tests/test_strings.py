"""Edit distance, q-grams, Jaccard — including the paper's worked numbers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.strings import (
    edit_distance,
    edit_distance_raw,
    jaccard,
    qgram_set,
    tuple_edit_similarity,
)

words = st.text(alphabet="abcdefg", max_size=12)


class TestEditDistanceRaw:
    def test_identical(self):
        assert edit_distance_raw("boeing", "boeing") == 0

    def test_empty_vs_word(self):
        assert edit_distance_raw("", "abc") == 3
        assert edit_distance_raw("abc", "") == 3

    def test_both_empty(self):
        assert edit_distance_raw("", "") == 0

    def test_single_substitution(self):
        assert edit_distance_raw("cat", "car") == 1

    def test_insertion(self):
        assert edit_distance_raw("cat", "cart") == 1

    def test_paper_company_corporation(self):
        # Section 3's figure: 7 operations between the two strings.
        assert edit_distance_raw("company", "corporation") == 7

    def test_boeing_bon(self):
        # b-o-(e)-(i)-n-(g): delete e, i, g.
        assert edit_distance_raw("boeing", "bon") == 3

    def test_beoing_boeing(self):
        # One transposition = 2 character edits under plain Levenshtein.
        assert edit_distance_raw("beoing", "boeing") == 2

    @given(words, words)
    def test_symmetry(self, a, b):
        assert edit_distance_raw(a, b) == edit_distance_raw(b, a)

    @given(words, words)
    def test_bounds(self, a, b):
        d = edit_distance_raw(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(words, words, words)
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance_raw(a, c) <= (
            edit_distance_raw(a, b) + edit_distance_raw(b, c)
        )

    @given(words)
    def test_identity(self, a):
        assert edit_distance_raw(a, a) == 0


class TestNormalizedEditDistance:
    def test_paper_normalization(self):
        # ed('company', 'corporation') = 7/11 ≈ 0.64
        assert edit_distance("company", "corporation") == pytest.approx(7 / 11)

    def test_beoing_example(self):
        # §3.1: 'beoing' vs 'boeing' at distance 0.33
        assert edit_distance("beoing", "boeing") == pytest.approx(2 / 6)

    def test_empty_strings(self):
        assert edit_distance("", "") == 0.0

    def test_completely_different(self):
        assert edit_distance("abc", "xyz") == 1.0

    @given(words, words)
    def test_range(self, a, b):
        assert 0.0 <= edit_distance(a, b) <= 1.0

    @given(words, words)
    def test_symmetric(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)


class TestQGramSet:
    def test_paper_boeing_3grams(self):
        assert qgram_set("boeing", 3) == {"boe", "oei", "ein", "ing"}

    def test_short_token_is_its_own_gram(self):
        assert qgram_set("wa", 3) == {"wa"}

    def test_exact_length_token(self):
        assert qgram_set("abc", 3) == {"abc"}

    def test_empty_string(self):
        assert qgram_set("", 3) == frozenset()

    def test_repeated_grams_collapse(self):
        assert qgram_set("aaaa", 2) == {"aa"}

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            qgram_set("abc", 0)

    @given(words, st.integers(1, 5))
    def test_gram_count_bound(self, s, q):
        grams = qgram_set(s, q)
        if len(s) <= q:
            assert len(grams) <= 1
        else:
            assert len(grams) <= len(s) - q + 1

    @given(words.filter(lambda s: len(s) > 3))
    def test_grams_are_substrings(self, s):
        for gram in qgram_set(s, 3):
            assert gram in s


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_partial_overlap(self):
        assert jaccard({"a", "b", "c"}, {"b", "c", "d"}) == pytest.approx(2 / 4)

    def test_empty_sets(self):
        assert jaccard(set(), set()) == 0.0

    def test_one_empty(self):
        assert jaccard({"a"}, set()) == 0.0


class TestTupleEditSimilarity:
    def test_identical_tuples(self):
        assert tuple_edit_similarity(("a b", "c"), ("a b", "c")) == 1.0

    def test_case_insensitive(self):
        assert tuple_edit_similarity(("Boeing",), ("boeing",)) == 1.0

    def test_none_as_empty(self):
        assert tuple_edit_similarity((None,), (None,)) == 1.0
        assert tuple_edit_similarity((None, "x"), (None, "x")) == 1.0

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            tuple_edit_similarity(("a",), ("a", "b"))

    def test_ed_prefers_bon_corporation(self):
        """The paper's motivating failure of edit distance (§1).

        I3 = [Boeing Corporation, ...] must look *closer to R2* than to its
        true target R1 under ed, because transforming 'corporation' to
        'company' costs more characters than 'boeing' to 'bon'.
        """
        i3 = ("Boeing Corporation", "Seattle", "WA", "98004")
        r1 = ("Boeing Company", "Seattle", "WA", "98004")
        r2 = ("Bon Corporation", "Seattle", "WA", "98014")
        assert tuple_edit_similarity(i3, r2) > tuple_edit_similarity(i3, r1)

    @given(
        st.lists(st.one_of(st.none(), words), min_size=1, max_size=4).map(tuple)
    )
    def test_self_similarity(self, values):
        assert tuple_edit_similarity(values, values) == 1.0

    @given(
        st.lists(words, min_size=2, max_size=2).map(tuple),
        st.lists(words, min_size=2, max_size=2).map(tuple),
    )
    def test_range(self, u, v):
        assert 0.0 <= tuple_edit_similarity(u, v) <= 1.0
