"""Optimistic short circuiting — the fetching and stopping tests (§4.3.2).

Signature q-grams are processed in decreasing weight order.  After each
lookup, the *fetching test* asks whether the current top-K tids look like
the final answer: the K-th tid's score is linearly extrapolated over the
not-yet-processed signature weight and compared against the best score the
(K+1)-th tid could still reach (the paper's worked example: R1's score 2.0
after two q-grams extrapolates to 4.5, R2 can reach at most 1.0 + 2.5 =
3.5, so fetch).  If the test passes, the top-K candidates are fetched and
verified with exact fms; the *stopping test* then confirms that no tuple
outside the fetched K can possibly be more similar.

The stopping test converts the score-space cap into similarity space
through the capped per-token form of fmsapx.  A token t whose min-hash
similarity to its best reference token is s contributes ``w(t) · min(2/q ·
s + (1 − 1/q), 1)`` to fmsapx·w(u), while contributing ``w(t) · s`` to the
accumulated raw score.  Hence for any tuple whose final raw score is at
most S::

    fms ≤ fmsapx ≤ (2/q) · S / w(u) + (1 − 1/q)

which is the bound an outside tuple must fail to clear.  This is both
safe (fms ≤ fmsapx holds with high probability, Lemma 4.1) and far
tighter than adding the adjustment term outright — tight enough for the
test to actually fire on the majority of inputs, which is what Figure 10
reports.

An over-optimistic fetching test costs only wasted fetches, never a wrong
answer (Theorem 2): correctness rests on the stopping test alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.candidates import ScoreTable


@dataclass(frozen=True)
class OscDecision:
    """Outcome of one fetching-test evaluation."""

    should_fetch: bool
    top_tids: tuple[int, ...]
    outside_score_cap: float
    """Best possible final *raw* score of any tid outside ``top_tids``:
    ``ss_i(r_{K+1}) + (w(Q_p) − w(Q_i))``."""


def fetching_test(
    score_table: ScoreTable,
    k: int,
    processed_weight: float,
    total_weight: float,
) -> OscDecision:
    """Evaluate the fetching test after some prefix of lookups.

    ``processed_weight`` is ``w(Q_i)`` (weight of q-grams looked up so far)
    and ``total_weight`` is ``w(Q_p)``.  Returns the decision along with the
    outside-tuple score cap consumed by the stopping test.
    """
    remaining = total_weight - processed_weight
    top = score_table.top(k + 1)
    runner_up_score = top[k][1] if len(top) > k else 0.0
    outside_cap = runner_up_score + remaining
    if len(top) < k or processed_weight <= 0.0:
        return OscDecision(False, (), outside_cap)
    estimated_kth = top[k - 1][1] * (total_weight / processed_weight)
    should_fetch = estimated_kth > outside_cap
    top_tids = tuple(tid for tid, _ in top[:k])
    return OscDecision(should_fetch, top_tids, outside_cap)


def similarity_upper_bound(raw_score: float, input_weight: float, q: int) -> float:
    """Largest fms any tuple with final raw score ``raw_score`` can have.

    ``min((2/q) · raw_score / w(u) + (1 − 1/q), 1)`` — the capped-fmsapx
    bound derived in the module docstring.  Also used by the basic
    algorithm's ordered candidate verification to stop fetching early.
    """
    if input_weight <= 0.0:
        return 1.0
    bound = (2.0 / q) * (raw_score / input_weight) + (1.0 - 1.0 / q)
    return min(bound, 1.0)


def stopping_bound(
    outside_score_cap: float, input_weight: float, q: int, conservative: bool = False
) -> float:
    """The fms every fetched candidate must reach for OSC to stop.

    See :func:`stopping_test` for the two forms.
    """
    if conservative:
        return similarity_upper_bound(outside_score_cap, input_weight, q)
    if input_weight > 0.0:
        return outside_score_cap / input_weight
    return 0.0


def stopping_test(
    similarities: list[float],
    outside_score_cap: float,
    input_weight: float,
    q: int,
    conservative: bool = False,
) -> bool:
    """True iff every fetched candidate beats all outside tuples.

    ``similarities`` are the exact fms values of the fetched top-K.

    With ``conservative=False`` (default) the test is the paper's: compare
    fms against ``(ss_i(r_{K+1}) + w(Q_p) − w(Q_i)) / w(u)`` — the worked
    example's "If fms(u, R1) ≥ 3.5/4.5, we stop".  This treats the raw
    score as a direct stand-in for similarity; it can in principle stop on
    a non-optimal tuple whose competitor has low q-gram overlap but high
    edit similarity, which the paper's accuracy numbers absorb.

    With ``conservative=True`` the outside cap is translated through
    :func:`similarity_upper_bound` instead, which is provably safe with
    respect to fmsapx but fires far less often (the ablation benchmark
    quantifies the trade).
    """
    bound = stopping_bound(outside_score_cap, input_weight, q, conservative)
    return all(similarity >= bound for similarity in similarities)
