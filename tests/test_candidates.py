"""Score table: accumulation, admission optimization, top-k."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import ScoreTable


class TestScoreAccumulation:
    def test_single_list(self):
        table = ScoreTable(threshold=0.0)
        table.add_tid_list([1, 2, 3], weight=0.5, remaining_weight=10.0)
        assert table.score(1) == 0.5
        assert table.score(99) == 0.0

    def test_scores_accumulate(self):
        table = ScoreTable(threshold=0.0)
        table.add_tid_list([1, 2], weight=0.5, remaining_weight=10.0)
        table.add_tid_list([1], weight=0.25, remaining_weight=9.5)
        assert table.score(1) == 0.75
        assert table.score(2) == 0.5

    def test_len_counts_tids(self):
        table = ScoreTable(threshold=0.0)
        table.add_tid_list([1, 2, 3], weight=1.0, remaining_weight=5.0)
        assert len(table) == 3

    def test_stats_processed(self):
        table = ScoreTable(threshold=0.0)
        table.add_tid_list([1, 2], weight=1.0, remaining_weight=5.0)
        table.add_tid_list([1, 3], weight=1.0, remaining_weight=4.0)
        assert table.stats.tids_processed == 4
        assert table.stats.tids_admitted == 3


class TestAdmissionOptimization:
    def test_new_tids_rejected_below_threshold(self):
        """Figure 3 step 9b: new tids only while RemWt >= threshold."""
        table = ScoreTable(threshold=2.0)
        table.add_tid_list([1], weight=1.0, remaining_weight=3.0)  # admitted
        table.add_tid_list([2], weight=1.0, remaining_weight=1.0)  # rejected
        assert table.score(1) == 1.0
        assert table.score(2) == 0.0
        assert table.stats.tids_rejected == 1

    def test_existing_tids_always_updated(self):
        table = ScoreTable(threshold=2.0)
        table.add_tid_list([1], weight=1.0, remaining_weight=3.0)
        # Below the admission bar, but tid 1 is already tracked.
        table.add_tid_list([1], weight=1.0, remaining_weight=1.0)
        assert table.score(1) == 2.0

    def test_zero_threshold_admits_everything(self):
        table = ScoreTable(threshold=0.0)
        table.add_tid_list([1], weight=0.1, remaining_weight=0.0)
        assert table.score(1) == 0.1


class TestTopAndCandidates:
    def make_table(self):
        table = ScoreTable(threshold=0.0)
        table.add_tid_list([1], weight=3.0, remaining_weight=10.0)
        table.add_tid_list([2], weight=2.0, remaining_weight=7.0)
        table.add_tid_list([3], weight=1.0, remaining_weight=5.0)
        return table

    def test_top_orders_by_score(self):
        assert self.make_table().top(2) == [(1, 3.0), (2, 2.0)]

    def test_top_more_than_present(self):
        assert len(self.make_table().top(10)) == 3

    def test_top_tie_breaks_on_tid(self):
        table = ScoreTable(threshold=0.0)
        table.add_tid_list([7, 3], weight=1.0, remaining_weight=5.0)
        assert table.top(1) == [(3, 1.0)]

    def test_candidates_filtered_by_floor(self):
        table = self.make_table()
        assert [tid for tid, _ in table.candidates(2.0)] == [1, 2]

    def test_candidates_sorted_descending(self):
        assert [tid for tid, _ in self.make_table().candidates(0.0)] == [1, 2, 3]

    def test_negative_floor_returns_all(self):
        assert len(self.make_table().candidates(-5.0)) == 3


class TestTopCache:
    def make_table(self):
        table = ScoreTable(threshold=0.0)
        table.add_tid_list([1], weight=3.0, remaining_weight=10.0)
        table.add_tid_list([2], weight=2.0, remaining_weight=7.0)
        table.add_tid_list([3], weight=1.0, remaining_weight=5.0)
        return table

    def test_repeat_calls_hit_cache(self):
        table = self.make_table()
        first = table.top(2)
        assert table.stats.top_cache_hits == 0
        second = table.top(2)
        assert second == first
        assert table.stats.top_cache_hits == 1

    def test_mutation_invalidates(self):
        """A score change invalidates the previous answer: the kept
        selection is updated in place, so the next call reads the new
        ranking without a re-select."""
        table = self.make_table()
        assert table.top(2) == [(1, 3.0), (2, 2.0)]
        table.add_tid_list([3], weight=4.0, remaining_weight=5.0)
        assert table.top(2) == [(3, 5.0), (1, 3.0)]
        assert table.stats.top_cache_hits == 1

    def test_rejected_only_list_keeps_cache_valid(self):
        # Every tid below the admission bound: nothing changed, so the
        # cached ranking stays live.
        table = ScoreTable(threshold=5.0)
        table.add_tid_list([1, 2], weight=6.0, remaining_weight=9.0)
        first = table.top(2)
        table.add_tid_list([8, 9], weight=0.5, remaining_weight=1.0)
        assert table.stats.tids_rejected == 2
        assert table.top(2) == first
        assert table.stats.top_cache_hits == 1

    def test_different_count_recomputes(self):
        table = self.make_table()
        table.top(2)
        assert table.top(3) == [(1, 3.0), (2, 2.0), (3, 1.0)]
        assert table.stats.top_cache_hits == 0
        table.top(3)
        assert table.stats.top_cache_hits == 1

    def test_returned_list_is_a_private_copy(self):
        table = self.make_table()
        first = table.top(2)
        first.append((99, 0.0))
        assert table.top(2) == [(1, 3.0), (2, 2.0)]


@st.composite
def tid_list_streams(draw):
    """Tid-list lookups with repeated tids, tied, zero and (rarely valid)
    negative weights, and admission bounds on both sides of the threshold."""
    threshold = draw(st.sampled_from((0.0, 1.0, 2.5)))
    weight = st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.5, -0.5))
    lookup = st.tuples(
        st.lists(st.integers(0, 12), max_size=8, unique=True),
        weight,
        st.sampled_from((0.0, 1.0, 3.0, 9.0)),
    )
    return threshold, draw(st.lists(lookup, max_size=25))


class TestKeptSelection:
    @given(tid_list_streams(), st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_top_after_every_lookup_equals_a_full_select(self, stream, count):
        threshold, lookups = stream
        table = ScoreTable(threshold)
        for tids, weight, remaining in lookups:
            table.add_tid_list(tids, weight, remaining)
            expected = heapq.nsmallest(
                count, table.scores.items(), key=lambda kv: (-kv[1], kv[0])
            )
            assert table.top(count) == expected

    @given(tid_list_streams(), st.sampled_from((-5.0, 0.0, 1.0, 2.5)))
    @settings(max_examples=300, deadline=None)
    def test_candidates_equal_the_score_then_tid_key_order(self, stream, floor):
        threshold, lookups = stream
        table = ScoreTable(threshold)
        for tids, weight, remaining in lookups:
            table.add_tid_list(tids, weight, remaining)
        expected = sorted(
            ((tid, score) for tid, score in table.scores.items() if score >= floor),
            key=lambda kv: (-kv[1], kv[0]),
        )
        assert table.candidates(floor) == expected

    @given(tid_list_streams(), st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_scores_and_counters_equal_a_per_tid_loop(self, stream, count):
        # The table counts from lengths; a plain per-tid loop is the oracle.
        threshold, lookups = stream
        table = ScoreTable(threshold)
        scores, processed, admitted, rejected = {}, 0, 0, 0
        for tids, weight, remaining in lookups:
            table.add_tid_list(tids, weight, remaining)
            table.top(count)
            for tid in tids:
                processed += 1
                if tid in scores:
                    scores[tid] += weight
                elif remaining >= threshold:
                    scores[tid] = weight
                    admitted += 1
                else:
                    rejected += 1
        assert [(t, repr(s)) for t, s in table.scores.items()] == [
            (t, repr(s)) for t, s in scores.items()
        ]
        stats = table.stats
        assert (stats.tids_processed, stats.tids_admitted, stats.tids_rejected) == (
            processed, admitted, rejected,
        )
