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

Verification is memoized per query, because the candidates of one query
share most of their column values (at 12 000 tuples an OSC miss verifies
≈ 1 540 candidates carrying ≈ 1 065 distinct names but only 53 cities and
28 states).  The reference side arrives as a row of interned
:class:`~repro.core.reference.ColumnValue` objects, and the query's
:class:`PreparedInput` keeps, per column, keyed by that object:

- ``bounds``: the best known lower bound on the column's transformation
  cost — first the pre-DP bound term below, replaced by the exact cost
  once a DP computes it;
- ``costs``: the exact column cost, once a DP computed it within budget
  (a DP result at or under its budget is exact);
- ``reference_weights`` (keyed by token): each reference token's
  column-weighted weight, read from the weight provider once per query.

Each input token carries two dicts keyed by reference token: its exact
distances, which the DP reads before it computes one and writes every
one it computes into, and its best known lower bounds, which the pre-DP
bound reads (a character-set bound, replaced by the exact distance once
the DP computes it).  Nothing outlives the query: no distance is
remembered across queries, so a query's answers, its ``MatchStats`` and
its work counters do not depend on the queries served before it.  Every
:func:`fms` call goes through :func:`fms_budgeted`; raw values and
:class:`TupleTokens` are turned into a (non-interned) row first.  The
matcher's verify stage runs the same two steps, :func:`_row_bound` then
:func:`_row_cost` under one budget, in its own loop, so a candidate the
bound prunes costs a store read and a few memo probes and nothing else.

Two verification fast paths, cheapest first (see ``docs/INTERNALS.md``):

- *A cost lower bound before the DP*: with a budget, the per-column
  bounds are summed, column by column, until the sum clears the budget.
  A column's bound term sums, over every input token missing from the
  candidate's column, its weight times its distance to the nearest
  reference token of that column (capped at 1, a deletion), plus the
  cheapest insertions the column's extra reference tokens force.
  Distances are the exact ones where this query's DP computed them,
  otherwise the character-set lower bound
  (:func:`~repro.core.strings.distance_lower_bound_raw` over the longer
  length), so the sum never exceeds ``tc``; a sum above the budget prunes
  the candidate without running the DP.  A candidate the bound prunes
  costs one memo probe per column.
- *Cost budgets*: the matcher's top-K loop knows that a candidate whose
  transformation cost exceeds ``(1 − kth_best) · w(u)`` can never enter
  the result, and passes that as a budget.  The DP abandons the candidate
  as soon as the running row minimum plus an admissible lower bound on the
  remaining tokens' cost exceeds the budget, returning a certified lower
  bound instead of the exact cost.

**Why the memos change no answer and no counter.**  The exact column
cost is a deterministic function of the input column and the reference
value, so reusing it returns the float the DP would return, and the
columns are still summed in column order.  A memoized exact cost ``e``
reused under a budget ``r`` prunes exactly when the DP would: a DP result
at or under ``r`` is exact, so the DP returns ``e`` when ``e ≤ r`` and a
value above ``r`` otherwise.  The bound is now summed per column rather
than token by token across columns, and its terms may be frozen at first
sight (a later candidate may meet a looser term than a token-by-token
recomputation would give) or tightened to the exact cost.  None of this
changes the ``pruned`` flag: every term is a lower bound on its column's
cost, the float sum of at most a few dozen non-negative terms is within
a relative ``1e-15``-scale error of the real sum, and a bound prunes only
above ``budget · (1 + 1e-9) + 1e-12``, so a bound prune implies that the
DP's float cost exceeds the budget too.  Which of the two mechanisms
prunes a candidate may change (``COUNTERS.bound_prunes`` and
``dp_cells`` move); the flag, and so ``fms_evaluations``,
``verify_budget_prunes`` and ``candidates_fetched``, do not.  A pruned
candidate's similarity is only an upper bound, which callers discard:
the matcher's per-query ``fms_cache`` holds exact ``(similarity, row)``
results only, and a pruned candidate is never written to it.

Every DP cell that needs a replacement takes the exact token distance,
from the input token's exact-distance dict or else from
:func:`repro.core.strings.edit_distance`; it is skipped only when even a
free replacement could not beat the cell's cheaper delete/insert
alternative.

Every bound assumes finite, non-negative operation costs, which
:class:`~repro.core.config.MatchConfig` enforces for the transposition
constant and the column weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, cast

from repro.core.config import MatchConfig, TranspositionCost
from repro.core.reference import ColumnValue, Row
from repro.core.strings import char_mask, distance_lower_bound_raw, edit_distance
from repro.core.tokens import TupleTokens, tokenize
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

    def add_bound_prunes(self, count: int = 1) -> None:
        """Count ``count`` candidates pruned before their DP."""
        self._bound_prunes.inc(count)

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

#: One weighed input token: ``(token, column-weighted weight,
#: char_mask(token), exact, bounds)``.  ``exact`` and ``bounds`` are
#: per-query memos keyed by reference token: ``exact`` holds the normalized
#: edit distances the DP computed, ``bounds`` the best known lower bound on
#: each (the character-set bound, or the exact distance once known).
InputToken = tuple[str, float, int, dict[str, float], dict[str, float]]

#: ``reference token → char_mask(token)``: the resident store's table
#: (:meth:`~repro.core.reference.ReferenceTable.token_masks`); the bound
#: computes a mask the table lacks.
TokenMasks = Mapping[str, int]


@dataclass(frozen=True)
class PreparedInput:
    """An input tuple weighed once, plus the query's verification memos.

    ``sets[i]`` holds one :data:`InputToken` per token of ``tok(u[i])``
    in sorted order (the order ``w(u)`` is summed in); ``sequences[i]``
    holds the same row objects in column ``i``'s token order, duplicates
    included, for the DP.  ``weight`` is ``w(u)``.  ``bounds``, ``costs``
    and ``reference_weights`` are the per-column memos the module
    docstring describes.  Valid only with the ``weights`` and ``config``
    it was prepared under; one query (one thread) at a time.
    """

    tokens: TupleTokens
    column_weights: tuple[float, ...]
    sets: tuple[tuple[InputToken, ...], ...]
    sequences: tuple[tuple[InputToken, ...], ...]
    weight: float
    weights: WeightFunction
    config: MatchConfig
    bounds: tuple[dict[ColumnValue, float], ...]
    costs: tuple[dict[ColumnValue, float], ...]
    reference_weights: tuple[dict[str, float], ...]


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
            rows[token] = (token, weight, char_mask(token), {}, {})
            total += weight
        sets.append(tuple(rows.values()))
        sequences.append(tuple(rows[token] for token in u.sequences[column]))
    bounds: list[dict[ColumnValue, float]] = [{} for _ in u.sequences]
    costs: list[dict[ColumnValue, float]] = [{} for _ in u.sequences]
    reference_weights: list[dict[str, float]] = [{} for _ in u.sequences]
    return PreparedInput(
        u,
        column_weights,
        tuple(sets),
        tuple(sequences),
        total,
        weights,
        config,
        tuple(bounds),
        tuple(costs),
        tuple(reference_weights),
    )


def _transposition_cost(w1: float, w2: float, config: MatchConfig) -> float:
    kind = config.transposition_cost
    if kind is TranspositionCost.AVERAGE:
        return (w1 + w2) / 2.0
    if kind is TranspositionCost.MINIMUM:
        return min(w1, w2)
    if kind is TranspositionCost.MAXIMUM:
        return max(w1, w2)
    return config.transposition_constant


def _distance(row: InputToken, token_v: str) -> float:
    """The exact ``ed(t, token_v)`` for input token ``row`` = ``(t, …)``:
    read from its exact dict, else computed and recorded in both of its
    dicts."""
    exact = row[3]
    distance = exact.get(token_v)
    if distance is None:
        distance = exact[token_v] = row[4][token_v] = edit_distance(row[0], token_v)
    return distance


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
    rows: Sequence[InputToken]
    if input_tokens and not isinstance(input_tokens[0], str):
        rows = cast("Sequence[InputToken]", input_tokens)
    else:
        rows = [
            (t, weights.weight(t, column) * column_weight, char_mask(t), {}, {})
            for t in cast("Sequence[str]", input_tokens)
        ]
    reference_weights = [
        weights.weight(t, column) * column_weight for t in reference_tokens
    ]
    return _column_cost(rows, reference_tokens, reference_weights, config, budget)


def _column_cost(
    rows: Sequence[InputToken],
    reference_tokens: Sequence[str],
    reference_weights: Sequence[float],
    config: MatchConfig,
    budget: float | None,
) -> float:
    """The DP behind :func:`transformation_cost`, over weighed tokens."""
    input_weights = [row[1] for row in rows]
    m = len(rows)
    n = len(reference_tokens)
    c_ins = config.token_insertion_factor
    transpositions = config.allow_transpositions

    # DP over (i input tokens consumed, j reference tokens produced).
    previous = [0.0] * (n + 1)
    for j in range(1, n + 1):
        previous[j] = previous[j - 1] + c_ins * reference_weights[j - 1]
    older: list[float] | None = None  # row i-2, for transpositions
    for i in range(1, m + 1):
        current = [previous[0] + input_weights[i - 1]]
        weight_u = input_weights[i - 1]
        row_u = rows[i - 1]
        row_min = current[0]
        for j in range(1, n + 1):
            token_v = reference_tokens[j - 1]
            delete = previous[j] + weight_u
            insert = current[j - 1] + c_ins * reference_weights[j - 1]
            best = delete if delete < insert else insert
            prev_diag = previous[j - 1]
            # Replacement, unless even a free one cannot beat the best of
            # delete/insert; the distance is computed only when it can.
            if best > prev_diag:
                if weight_u <= 0.0:
                    best = prev_diag
                else:
                    replace = prev_diag + _distance(row_u, token_v) * weight_u
                    if replace < best:
                        best = replace
            if transpositions and older is not None and i >= 2 and j >= 2:
                # Transpose (u[i-2], u[i-1]) then replace each against its
                # crossed counterpart — a transposition followed by token
                # replacements is a legal transformation sequence, so the
                # DP may take it whenever it is the cheapest option (exact
                # swaps degenerate to the bare transposition cost).
                swap = (
                    older[j - 2]
                    + _transposition_cost(input_weights[i - 2], weight_u, config)
                    + _distance(row_u, reference_tokens[j - 2]) * weight_u
                    + _distance(rows[i - 2], token_v)
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


def _reference_weights(u: PreparedInput, column: int, tokens: Sequence[str]) -> list[float]:
    """Column-weighted weights of reference ``tokens``, read once per query."""
    memo = u.reference_weights[column]
    found = []
    for token in tokens:
        weight = memo.get(token)
        if weight is None:
            weight = u.weights.weight(token, column) * u.column_weights[column]
            memo[token] = weight
        found.append(weight)
    return found


def _bound_term(
    u: PreparedInput, column: int, value: ColumnValue, masks: TokenMasks
) -> float:
    """The pre-DP lower bound on one column's cost, memoized per value.

    Every input token ``t`` of weight ``w > 0`` missing from the value
    costs at least ``w · min(1, min over its tokens s of d(t, s))`` — it
    is deleted (``w``), replaced (``w · ed``) or transposed and replaced
    (``w · ed`` plus ``g ≥ 0``) — and when the value has ``n > m`` tokens
    at least ``n − m`` of them are inserted, costing at least ``c_ins``
    times the ``n − m`` smallest reference weights.  ``d`` is the input
    token's best known bound: the exact distance where this query's DP
    computed it, otherwise the character-set bound
    :func:`~repro.core.strings.distance_lower_bound_raw` over the longer
    length, which never exceeds ``ed``.  ``s``'s mask comes from
    ``masks``, or is computed when the table lacks it.
    """
    tokens = value.tokens
    u_rows = u.sequences[column]
    term = 0.0
    if u.tokens.sequences[column] != tokens:
        for token, weight, mask, _, bounds in u_rows:
            if weight <= 0.0 or token in tokens:
                continue
            length = len(token)
            nearest = 1.0
            for other in tokens:
                distance = bounds.get(other)
                if distance is None:
                    other_mask = masks.get(other)
                    if other_mask is None:
                        other_mask = char_mask(other)
                    other_length = len(other)
                    distance = bounds[other] = distance_lower_bound_raw(
                        token, mask, other, other_mask
                    ) / (length if length > other_length else other_length)
                if distance < nearest:
                    nearest = distance
            term += weight * nearest
        surplus = len(tokens) - len(u_rows)
        if surplus > 0:
            inserted = sorted(_reference_weights(u, column, tokens))
            term += u.config.token_insertion_factor * sum(inserted[:surplus])
    u.bounds[column][value] = term
    return term


def _row_bound(u: PreparedInput, row: Row, limit: float, masks: TokenMasks) -> float:
    """A lower bound on ``tc(u, row)``, summed only until it exceeds ``limit``."""
    total = 0.0
    for column, (bounds, value) in enumerate(zip(u.bounds, row)):
        term = bounds.get(value)
        if term is None:
            term = _bound_term(u, column, value, masks)
        total += term
        if total > limit:
            return total
    return total


def _row_cost(u: PreparedInput, row: Row, budget: float | None) -> float:
    """``tc(u, row)``: the per-column costs summed in column order.

    Each column's exact cost comes from the query's memo or from its DP,
    run under the budget the earlier columns left; an exact result is
    memoized.  Returns a certified lower bound above ``budget`` as soon
    as the running total proves the row cannot come in under it.
    """
    total = 0.0
    for column, value in enumerate(row):
        costs = u.costs[column]
        cost = costs.get(value)
        if cost is None:
            tokens = value.tokens
            if u.tokens.sequences[column] == tokens:
                # Identical token sequences transform for free; skipping the
                # DP here is the hot-path win (candidates usually agree on
                # most columns).
                cost = costs[value] = 0.0
            else:
                remaining = None if budget is None else budget - total
                cost = _column_cost(
                    u.sequences[column],
                    tokens,
                    _reference_weights(u, column, tokens),
                    u.config,
                    remaining,
                )
                if remaining is None or cost <= remaining:
                    # At or under its budget the DP's result is exact.
                    costs[value] = u.bounds[column][value] = cost
        total += cost
        if budget is not None and total > budget:
            # Either this column's DP abandoned (returning a lower bound
            # above its remaining budget) or the exact running total
            # crossed the line; both certify total cost > budget.
            return total
    return total


def _as_row(v: TupleTokens | Sequence[str | None] | Sequence[ColumnValue]) -> Row:
    """``v`` as a row of (non-interned) column values."""
    if isinstance(v, TupleTokens):
        return tuple(ColumnValue(None, tokens) for tokens in v.sequences)
    if v and isinstance(v[0], ColumnValue):
        return tuple(cast("Sequence[ColumnValue]", v))
    return tuple(
        ColumnValue(raw, tuple(tokenize(raw)))
        for raw in cast("Sequence[str | None]", v)
    )


def _prepared(
    u: PreparedInput | TupleTokens | Sequence[str | None],
    weights: WeightFunction,
    config: MatchConfig | None,
) -> PreparedInput:
    if isinstance(u, PreparedInput):
        return u
    if not isinstance(u, TupleTokens):
        u = TupleTokens.from_values(u)
    return prepare_input(u, weights, config if config is not None else MatchConfig())


def tuple_transformation_cost(
    u: TupleTokens | PreparedInput,
    v: TupleTokens | Sequence[ColumnValue],
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
    prepared = _prepared(u, weights, config)
    row = _as_row(v)
    if len(row) != len(prepared.sequences):
        raise ValueError("tuples must have the same number of columns")
    return _row_cost(prepared, row, budget)


def cost_lower_bound(
    u: PreparedInput,
    v: TupleTokens | Sequence[ColumnValue],
    weights: WeightFunction,
    config: MatchConfig,
    limit: float = math.inf,
) -> float:
    """A lower bound on ``tc(u, v)``, summed column by column only until
    it exceeds ``limit``.

    Per column, the best bound the query knows: the exact cost once a DP
    computed it, else the pre-DP bound term (see :func:`_bound_term`),
    which never exceeds the column's ``tc``.  ``weights`` and ``config``
    must be the ones ``u`` was prepared under.
    """
    return _row_bound(u, _as_row(v), limit, {})


def fms(
    u: PreparedInput | TupleTokens | Sequence[str | None],
    v: TupleTokens | Sequence[str | None] | Sequence[ColumnValue],
    weights: WeightFunction,
    config: MatchConfig | None = None,
) -> float:
    """Fuzzy match similarity between input ``u`` and reference ``v``.

    Accepts raw attribute-value sequences, pre-tokenized
    :class:`TupleTokens`, a row of
    :class:`~repro.core.reference.ColumnValue` objects (for ``v``), or a
    :class:`PreparedInput` (for ``u``): a query verifying many candidates
    against one input weighs it once (:func:`prepare_input`), ``w(u)``
    included, and shares its memos across them.  Returns a similarity in
    [0, 1].  An input with no tokens at all matches an empty reference
    perfectly and anything else not at all (``w(u) = 0`` leaves nothing
    to normalize by).
    """
    similarity, _ = fms_budgeted(u, v, weights, config)
    return similarity


def fms_budgeted(
    u: PreparedInput | TupleTokens | Sequence[str | None],
    v: TupleTokens | Sequence[str | None] | Sequence[ColumnValue],
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

    Under a budget the DP runs only when the cost lower bound leaves it a
    chance: a bound clearing the budget (with a relative 1e-9 margin for
    the different float summation order) proves the DP would report
    ``pruned=True`` too, so pruning without it changes no answer.  With a
    :class:`PreparedInput`, ``weights`` and ``config`` are the ones it was
    prepared under.
    """
    u = _prepared(u, weights, config)
    if type(v) is tuple and v and type(v[0]) is ColumnValue:
        row = cast(Row, v)  # a resident row: the hot path takes it as is
    else:
        row = _as_row(v)
    if len(row) != len(u.sequences):
        raise ValueError("tuples must have the same number of columns")
    total_weight = u.weight
    if total_weight <= 0.0:
        empty = not any(value.tokens for value in row)
        return (1.0 if empty else 0.0, False)
    if cost_budget is not None:
        if cost_budget >= total_weight:
            # fms floors at 0 once cost reaches w(u): nothing left to prune.
            cost_budget = None
        else:
            limit = cost_budget * (1.0 + 1e-9) + 1e-12
            bound = _row_bound(u, row, limit, {})
            if bound > limit:
                COUNTERS.add_bound_prunes()
                return (1.0 - min(bound / total_weight, 1.0), True)
    cost = _row_cost(u, row, cost_budget)
    pruned = cost_budget is not None and cost > cost_budget
    return (1.0 - min(cost / total_weight, 1.0), pruned)
