"""OSC fetching and stopping tests, including the paper's §4.3.2 example."""

import pytest

from repro.core.candidates import ScoreTable
from repro.core.osc import fetching_test, similarity_upper_bound, stopping_test


def paper_example_table():
    """The §4.3.2 walkthrough state after fetching '980' and '004'.

    I1's q-grams by descending weight: 980/004 (1.0 each), wa (0.75),
    sea/ttl (0.5), eoi/ing (0.25), com/pan (0.125); total weight 4.5.
    '980' lists {R1,R2,R3}, '004' lists {R1}.
    """
    table = ScoreTable(threshold=0.0)
    table.add_tid_list([1, 2, 3], weight=1.0, remaining_weight=4.5)
    table.add_tid_list([1], weight=1.0, remaining_weight=3.5)
    return table


class TestFetchingTest:
    def test_paper_example_fetches(self):
        """R1 extrapolates to 2.0 * 4.5/2.0 = 4.5 > 3.5 -> fetch."""
        decision = fetching_test(
            paper_example_table(), k=1, processed_weight=2.0, total_weight=4.5
        )
        assert decision.should_fetch
        assert decision.top_tids == (1,)
        assert decision.outside_score_cap == pytest.approx(3.5)

    def test_indistinguishable_scores_do_not_fetch(self):
        """After only '980' everything is tied: no fetch (the paper
        "cannot yet distinguish between the 1st and 2nd best scores")."""
        table = ScoreTable(threshold=0.0)
        table.add_tid_list([1, 2, 3], weight=1.0, remaining_weight=4.5)
        decision = fetching_test(table, k=1, processed_weight=1.0, total_weight=4.5)
        assert not decision.should_fetch

    def test_no_tids_no_fetch(self):
        decision = fetching_test(
            ScoreTable(0.0), k=1, processed_weight=1.0, total_weight=4.0
        )
        assert not decision.should_fetch
        assert decision.top_tids == ()

    def test_fewer_than_k_tids_no_fetch(self):
        table = ScoreTable(threshold=0.0)
        table.add_tid_list([1], weight=1.0, remaining_weight=4.0)
        decision = fetching_test(table, k=2, processed_weight=1.0, total_weight=4.0)
        assert not decision.should_fetch

    def test_missing_runner_up_treated_as_zero(self):
        table = ScoreTable(threshold=0.0)
        table.add_tid_list([1], weight=2.0, remaining_weight=4.0)
        decision = fetching_test(table, k=1, processed_weight=2.0, total_weight=4.0)
        # Outside cap = 0 + (4.0 - 2.0) = 2.0 < extrapolated 4.0.
        assert decision.should_fetch
        assert decision.outside_score_cap == pytest.approx(2.0)

    def test_zero_processed_weight_no_fetch(self):
        table = ScoreTable(threshold=0.0)
        table.add_tid_list([1, 2], weight=0.0, remaining_weight=4.0)
        decision = fetching_test(table, k=1, processed_weight=0.0, total_weight=4.0)
        assert not decision.should_fetch


class TestStoppingTest:
    def test_paper_example_stop_threshold(self):
        """Stop iff fms(u, R1) >= 3.5/4.5 (the example's stated bound)."""
        assert stopping_test([0.80], 3.5, 4.5)
        assert not stopping_test([0.75], 3.5, 4.5)

    def test_all_k_must_pass(self):
        assert not stopping_test([0.9, 0.5], 3.5, 4.5)
        assert stopping_test([0.9, 0.8], 3.5, 4.5)

    def test_zero_input_weight(self):
        assert stopping_test([0.0], 1.0, 0.0)


class TestSimilarityUpperBound:
    def test_zero_score(self):
        assert similarity_upper_bound(0.0, 4.0, q=4) == pytest.approx(0.75)

    def test_full_score(self):
        assert similarity_upper_bound(4.0, 4.0, q=4) == 1.0

    def test_monotone_in_score(self):
        bounds = [similarity_upper_bound(s, 4.0, q=4) for s in (0.0, 1.0, 2.0)]
        assert bounds == sorted(bounds)

    def test_zero_weight_degenerates_to_one(self):
        assert similarity_upper_bound(1.0, 0.0, q=4) == 1.0

    def test_q_dependence(self):
        # Larger q -> larger baseline adjustment.
        assert similarity_upper_bound(0.0, 1.0, q=5) > similarity_upper_bound(
            0.0, 1.0, q=2
        )
