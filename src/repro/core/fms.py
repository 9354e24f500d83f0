"""The fuzzy match similarity function *fms* (§3.1) .

``fms(u, v) = 1 − min(tc(u, v) / w(u), 1)`` where ``tc`` is the minimum cost
of transforming input tuple ``u`` into reference tuple ``v`` column by
column, using three token-level operations:

- *replacement* of input token t1 by reference token t2:
  ``ed(t1, t2) · w(t1)`` (cross-column replacements are forbidden — the DP
  only ever compares same-column sequences);
- *insertion* of reference token t: ``c_ins · w(t)``;
- *deletion* of input token t: ``w(t)``.

The per-column minimum-cost sequence is found with the classic edit-distance
dynamic program lifted from characters to weighted tokens.  With
``allow_transpositions`` (§5.3) the DP also admits the Damerau-style swap of
two adjacent tokens at cost ``g(w(t1), w(t2))``; since a transposition only
reorders tokens, fms with transpositions is still upper-bounded by fmsapx
and every index-based guarantee carries over.

fms is deliberately asymmetric: ``u`` is always the dirty input, ``v`` the
clean reference.

Two verification fast paths live here, cheapest first (see
``docs/INTERNALS.md``):

- *A cost lower bound before the DP*: with a budget, :func:`fms_budgeted`
  first sums, over every input token missing from the candidate's column,
  its weight times its distance to the nearest reference token of that
  column (capped at 1, a deletion), plus the cheapest insertions the
  column's extra reference tokens force.  Distances are the exact
  memoized ones where known, otherwise the length-gap lower bound, so the
  sum never exceeds ``tc``; a sum above the budget prunes the candidate
  without running the DP.  The input side comes pre-weighed once per
  query (:class:`PreparedInput`), so the bound costs dict probes, not
  weight lookups.
- *Cost budgets*: the matcher's top-K loop knows that a candidate whose
  transformation cost exceeds ``(1 − kth_best) · w(u)`` can never enter
  the result, and passes that as a budget.  The DP abandons the candidate
  as soon as the running row minimum plus an admissible lower bound on the
  remaining tokens' cost exceeds the budget, returning a certified lower
  bound instead of the exact cost.

Every DP cell that needs a replacement takes the exact, memoized token
distance (:func:`repro.core.strings.cached_edit_distance`); it is skipped
only when even a free replacement could not beat the cell's cheaper
delete/insert alternative.

Every bound assumes finite, non-negative operation costs, which
:class:`~repro.core.config.MatchConfig` enforces for the transposition
constant and the column weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.config import MatchConfig, TranspositionCost
from repro.core.strings import cached_edit_distance, exact_distance_memo
from repro.core.tokens import TupleTokens
from repro.core.weights import WeightFunction
from repro.obs.registry import MetricsRegistry, default_registry


class FmsCounters:
    """Cumulative work counters for the transformation-cost DP.

    A view over relaxed counters in the process-global metrics registry
    (``repro_fms_*_total`` series).  ``dp_cells`` counts (input token ×
    reference token) cells filled, ``budget_abandons`` counts DP runs
    that stopped early because the running cost cleared the caller's
    budget, and ``bound_prunes`` counts candidates whose pre-DP cost lower
    bound cleared it, so no DP ran at all.  Lockless increments:
    concurrent queries may under-count, which only distorts reporting.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        if registry is None:
            registry = default_registry()
        self._dp_cells = registry.counter(
            "repro_fms_dp_cells_total", relaxed=True
        )
        self._budget_abandons = registry.counter(
            "repro_fms_budget_abandons_total", relaxed=True
        )
        self._bound_prunes = registry.counter(
            "repro_fms_bound_prunes_total", relaxed=True
        )

    @property
    def dp_cells(self) -> int:
        """DP cells filled across every run."""
        return self._dp_cells.value()

    @property
    def budget_abandons(self) -> int:
        """DP runs abandoned after clearing the caller's budget."""
        return self._budget_abandons.value()

    @property
    def bound_prunes(self) -> int:
        """Candidates pruned by the cost lower bound before any DP ran."""
        return self._bound_prunes.value()

    def add_dp_cells(self, cells: int) -> None:
        """Count ``cells`` DP cells filled."""
        self._dp_cells.inc(cells)

    def add_budget_abandon(self) -> None:
        """Count one budget-driven early stop."""
        self._budget_abandons.inc()

    def add_bound_prune(self) -> None:
        """Count one candidate pruned before its DP."""
        self._bound_prunes.inc()

    def snapshot(self) -> tuple[int, int, int]:
        """Counter values at this instant, for before/after deltas."""
        return (self.dp_cells, self.budget_abandons, self.bound_prunes)

    def reset(self) -> None:
        """Zero every counter (benchmark bracketing)."""
        self._dp_cells.reset()
        self._budget_abandons.reset()
        self._bound_prunes.reset()


#: Module-wide counters shared by every transformation-cost DP run.
COUNTERS = FmsCounters()

#: One weighed input token: ``(token, column-weighted weight, len(token),
#: {reference token: exact normalized edit distance})``.  The dict is a
#: per-query memo of *exact* distances only: a length-only bound stored
#: there would shadow a tighter one the DP proves later.
InputToken = tuple[str, float, int, dict[str, float]]


@dataclass(frozen=True)
class PreparedInput:
    """An input tuple weighed once, for every fms call a query makes.

    ``sets[i]`` holds one :data:`InputToken` per token of ``tok(u[i])``
    in sorted order (the order ``w(u)`` is summed in); ``sequences[i]``
    holds the same row objects in column ``i``'s token order, duplicates
    included, for the DP.  ``weight`` is ``w(u)``.  Only valid with the
    weights and config it was prepared under.
    """

    tokens: TupleTokens
    column_weights: tuple[float, ...]
    sets: tuple[tuple[InputToken, ...], ...]
    sequences: tuple[tuple[InputToken, ...], ...]
    weight: float


def prepare_input(
    u: TupleTokens, weights: WeightFunction, config: MatchConfig
) -> PreparedInput:
    """Weigh every token of ``u`` once: the input side of every fms call."""
    column_weights = config.normalized_column_weights(u.num_columns)
    sets = []
    sequences = []
    total = 0.0
    for column, token_set in enumerate(u.sets):
        rows = {}
        for token in sorted(token_set):
            weight = weights.weight(token, column) * column_weights[column]
            rows[token] = (token, weight, len(token), {})
            total += weight
        sets.append(tuple(rows.values()))
        sequences.append(tuple(rows[token] for token in u.sequences[column]))
    return PreparedInput(u, column_weights, tuple(sets), tuple(sequences), total)


def _transposition_cost(w1: float, w2: float, config: MatchConfig) -> float:
    kind = config.transposition_cost
    if kind is TranspositionCost.AVERAGE:
        return (w1 + w2) / 2.0
    if kind is TranspositionCost.MINIMUM:
        return min(w1, w2)
    if kind is TranspositionCost.MAXIMUM:
        return max(w1, w2)
    return config.transposition_constant


def _replace_cost(
    prev_diag: float, alternative: float, token_u: str, token_v: str, weight_u: float
) -> float:
    """Cell value ``min(alternative, prev_diag + ed(t_u, t_v) · w_u)``.

    The edit distance is computed (memoized) only when the replacement
    could still beat ``alternative``, the best of delete/insert.
    """
    if alternative <= prev_diag:
        # Even a free replacement cannot beat the alternative.
        return alternative
    if weight_u <= 0.0:
        return prev_diag
    replace = prev_diag + cached_edit_distance(token_u, token_v) * weight_u
    return replace if replace < alternative else alternative


def transformation_cost(
    input_tokens: Sequence[str] | Sequence[InputToken],
    reference_tokens: Sequence[str],
    column: int,
    weights: WeightFunction,
    config: MatchConfig,
    column_weight: float = 1.0,
    budget: float | None = None,
) -> float:
    """``tc(u[i], v[i])``: minimum cost to transform one column's tokens.

    ``input_tokens`` / ``reference_tokens`` are the *ordered* token
    sequences of column ``column``; the input side may instead be the
    column's already-weighed rows (``PreparedInput.sequences[column]``).
    ``column_weight`` scales every token weight not already weighed
    (§5.2); 1.0 is plain fms.

    ``budget`` (``None`` = unlimited) lets the DP abandon early: when the
    minimum cost of any completion provably exceeds the budget, a
    certified lower bound greater than the budget is returned instead of
    the exact cost.  Results at or under the budget are always exact.
    """
    if input_tokens and not isinstance(input_tokens[0], str):
        input_weights = [row[1] for row in input_tokens]
        input_tokens = [row[0] for row in input_tokens]
    else:
        input_weights = [
            weights.weight(t, column) * column_weight for t in input_tokens
        ]
    m = len(input_tokens)
    n = len(reference_tokens)
    reference_weights = [
        weights.weight(t, column) * column_weight for t in reference_tokens
    ]
    c_ins = config.token_insertion_factor
    transpositions = config.allow_transpositions

    # DP over (i input tokens consumed, j reference tokens produced).
    previous = [0.0] * (n + 1)
    for j in range(1, n + 1):
        previous[j] = previous[j - 1] + c_ins * reference_weights[j - 1]
    older: list[float] | None = None  # row i-2, for transpositions
    for i in range(1, m + 1):
        current = [previous[0] + input_weights[i - 1]]
        token_u = input_tokens[i - 1]
        weight_u = input_weights[i - 1]
        row_min = current[0]
        for j in range(1, n + 1):
            token_v = reference_tokens[j - 1]
            delete = previous[j] + weight_u
            insert = current[j - 1] + c_ins * reference_weights[j - 1]
            alternative = delete if delete < insert else insert
            best = _replace_cost(
                previous[j - 1], alternative, token_u, token_v, weight_u
            )
            if transpositions and older is not None and i >= 2 and j >= 2:
                # Transpose (u[i-2], u[i-1]) then replace each against its
                # crossed counterpart — a transposition followed by token
                # replacements is a legal transformation sequence, so the
                # DP may take it whenever it is the cheapest option (exact
                # swaps degenerate to the bare transposition cost).
                swap = (
                    older[j - 2]
                    + _transposition_cost(input_weights[i - 2], weight_u, config)
                    + cached_edit_distance(token_u, reference_tokens[j - 2]) * weight_u
                    + cached_edit_distance(input_tokens[i - 2], token_v)
                    * input_weights[i - 2]
                )
                if swap < best:
                    best = swap
            current.append(best)
            if best < row_min:
                row_min = best
        COUNTERS.add_dp_cells(n)
        if budget is not None and i < m:
            # Admissible completion bound: input tokens i..m-1 remain.  If
            # more remain than there are reference tokens, the surplus must
            # be deleted no matter how the rest pair up, costing at least
            # the smallest remaining weights.  (Transpositions only reorder
            # tokens, so the surplus-deletion argument still holds.)
            lower = row_min
            surplus = (m - i) - n
            if surplus > 0:
                lower += sum(sorted(input_weights[i:])[:surplus])
            if lower > budget:
                COUNTERS.add_budget_abandon()
                return lower
        older = previous
        previous = current
    return previous[n]


def tuple_transformation_cost(
    u: TupleTokens | PreparedInput,
    v: TupleTokens,
    weights: WeightFunction,
    config: MatchConfig,
    budget: float | None = None,
) -> float:
    """``tc(u, v)``: sum of per-column transformation costs.

    With a ``budget``, the per-column DPs run under the remaining budget
    and the whole computation abandons (returning a certified lower bound
    greater than the budget) as soon as the accumulated cost alone proves
    the tuple cannot come in under it.  Results at or under the budget are
    always exact.
    """
    if not isinstance(u, PreparedInput):
        u = prepare_input(u, weights, config)
    if u.tokens.num_columns != v.num_columns:
        raise ValueError("tuples must have the same number of columns")
    total = 0.0
    for col, u_rows in enumerate(u.sequences):
        v_tokens = v.sequences[col]
        if u.tokens.sequences[col] == v_tokens:
            # Identical token sequences transform for free; skipping the
            # DP here is the hot-path win (candidates usually agree on
            # most columns).
            continue
        remaining = None if budget is None else budget - total
        total += transformation_cost(
            u_rows,
            v_tokens,
            col,
            weights,
            config,
            column_weight=u.column_weights[col],
            budget=remaining,
        )
        if budget is not None and total > budget:
            # Either this column's DP abandoned (returning a lower bound
            # above its remaining budget) or the exact running total
            # crossed the line; both certify total cost > budget.
            return total
    return total


def cost_lower_bound(
    u: PreparedInput,
    v: TupleTokens,
    weights: WeightFunction,
    config: MatchConfig,
    limit: float = math.inf,
) -> float:
    """A lower bound on ``tc(u, v)``, summed only until it exceeds ``limit``.

    Per column whose token sequences differ: every input token ``t`` of
    weight ``w > 0`` missing from ``v``'s column costs at least
    ``w · min(1, min over the column's reference tokens of d(t, ·))`` —
    it is deleted (``w``), replaced (``w · ed``) or transposed and
    replaced (``w · ed`` plus ``g ≥ 0``) — and when the reference column
    has ``n > m`` tokens at least ``n − m`` of them are inserted, costing
    at least ``c_ins`` times the ``n − m`` smallest reference weights.
    ``d`` is the exact memoized distance when known, else the length gap
    ``max(|len t − len s|, 1)`` over the longer length; it never exceeds
    ``ed``, so the sum never exceeds ``tc``.  Exact distances found in the
    global memo are copied into the input token's own dict, which later
    candidates probe first.
    """
    exact = exact_distance_memo
    total = 0.0
    for col, u_rows in enumerate(u.sequences):
        v_tokens = v.sequences[col]
        if u.tokens.sequences[col] == v_tokens:
            continue
        v_set = v.sets[col]
        for token, weight, length, distances in u_rows:
            if weight <= 0.0 or token in v_set:
                continue
            nearest = 1.0
            for other in v_set:
                distance = distances.get(other)
                if distance is None:
                    key = (token, other) if token <= other else (other, token)
                    distance = exact.get(key)
                    if distance is None:
                        other_length = len(other)
                        if length > other_length:
                            distance = (length - other_length) / length
                        else:
                            distance = ((other_length - length) or 1) / other_length
                    else:
                        distances[other] = distance
                if distance < nearest:
                    nearest = distance
            total += weight * nearest
            if total > limit:
                return total
        surplus = len(v_tokens) - len(u_rows)
        if surplus > 0:
            column_weight = u.column_weights[col]
            inserted = sorted(weights.weight(t, col) * column_weight for t in v_tokens)
            total += config.token_insertion_factor * sum(inserted[:surplus])
            if total > limit:
                return total
    return total


def fms(
    u: PreparedInput | TupleTokens | Sequence[str | None],
    v: TupleTokens | Sequence[str | None],
    weights: WeightFunction,
    config: MatchConfig | None = None,
) -> float:
    """Fuzzy match similarity between input ``u`` and reference ``v``.

    Accepts raw attribute-value sequences, pre-tokenized
    :class:`TupleTokens`, or (for ``u``) a :class:`PreparedInput`: a
    query verifying many candidates against one input weighs it once
    (:func:`prepare_input`), ``w(u)`` included.  Returns a similarity in
    [0, 1].  An input with no tokens at all matches an empty reference
    perfectly and anything else not at all (``w(u) = 0`` leaves nothing
    to normalize by).
    """
    similarity, _ = fms_budgeted(u, v, weights, config)
    return similarity


def fms_budgeted(
    u: PreparedInput | TupleTokens | Sequence[str | None],
    v: TupleTokens | Sequence[str | None],
    weights: WeightFunction,
    config: MatchConfig | None = None,
    cost_budget: float | None = None,
) -> tuple[float, bool]:
    """:func:`fms` with an optional transformation-cost budget.

    Returns ``(similarity, pruned)``.  With ``pruned=False`` the
    similarity is exact.  With ``pruned=True`` (only possible when a
    ``cost_budget`` is given) the cost lower bound or the DP proved the
    transformation cost exceeds the budget; the returned value is an *upper
    bound* on the true similarity and is strictly below
    ``1 − cost_budget / w(u)`` — enough for a top-K loop to discard the
    candidate, and nothing else.

    Under a budget the DP runs only when :func:`cost_lower_bound` leaves
    it a chance: a bound clearing the budget (with a relative 1e-9 margin
    for the different float summation order) proves the DP would report
    ``pruned=True`` too, so pruning without it changes no answer.
    """
    if config is None:
        config = MatchConfig()
    if not isinstance(u, PreparedInput):
        if not isinstance(u, TupleTokens):
            u = TupleTokens.from_values(u)
        u = prepare_input(u, weights, config)
    if not isinstance(v, TupleTokens):
        v = TupleTokens.from_values(v)
    if u.tokens.num_columns != v.num_columns:
        raise ValueError("tuples must have the same number of columns")
    total_weight = u.weight
    if total_weight <= 0.0:
        return (1.0 if v.token_count() == 0 else 0.0, False)
    if cost_budget is not None:
        if cost_budget >= total_weight:
            # fms floors at 0 once cost reaches w(u): nothing left to prune.
            cost_budget = None
        else:
            limit = cost_budget * (1.0 + 1e-9) + 1e-12
            bound = cost_lower_bound(u, v, weights, config, limit)
            if bound > limit:
                COUNTERS.add_bound_prune()
                return (1.0 - min(bound / total_weight, 1.0), True)
    cost = tuple_transformation_cost(u, v, weights, config, budget=cost_budget)
    pruned = cost_budget is not None and cost > cost_budget
    return (1.0 - min(cost / total_weight, 1.0), pruned)
