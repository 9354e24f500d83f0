"""Configuration for the fuzzy match operation.

All paper parameters in one frozen dataclass.  Paper defaults (§6.1
"Parameter Settings"): K=1, q-gram size q=4, minimum similarity threshold
c=0.0, token insertion factor c_ins=0.5, stop q-gram threshold 10 000.
Signature schemes follow §6.2's notation: ``Q_H`` (q-grams only) and
``Q+T_H`` (q-grams plus the token itself as coordinate 0).
"""

from __future__ import annotations

import enum
import math
from typing import Any
from dataclasses import dataclass, replace


class SignatureScheme(enum.Enum):
    """How tokens are turned into ETI signature coordinates (§5.1, §6.2).

    ``FULL_QGRAMS`` is not in the paper's evaluation: it indexes *every*
    q-gram of every token (the Gravano-style full q-gram table of the
    related work, [12]/[18]), serving as the baseline for the paper's §2
    claim that the ETI "is smaller than a full q-gram table because we
    only select (probabilistically) a subset of all q-grams per tuple".
    With this scheme ``signature_size`` is ignored.
    """

    QGRAMS = "Q"
    QGRAMS_PLUS_TOKEN = "Q+T"
    FULL_QGRAMS = "Full"


class TranspositionCost(enum.Enum):
    """Cost function g(w(t1), w(t2)) of a token transposition (§5.3)."""

    AVERAGE = "avg"
    MINIMUM = "min"
    MAXIMUM = "max"
    CONSTANT = "const"


@dataclass(frozen=True)
class MatchConfig:
    """Parameters of the similarity function and the match algorithms.

    Attributes
    ----------
    q:
        q-gram size (paper experiments: 4; paper running examples: 3).
    signature_size:
        H, the number of min-hash coordinates per token.  0 is only valid
        with the ``Q+T`` scheme (tokens-only indexing, "Q+T_0").
    scheme:
        ``Q`` or ``Q+T`` signature scheme.
    k:
        Number of fuzzy matches to return (the K in K-fuzzy-match).
    min_similarity:
        c, the minimum fms similarity a returned match must reach.
    token_insertion_factor:
        c_ins in the token insertion cost ``c_ins * w(t)``.
    stop_qgram_threshold:
        Tid-lists longer than this are replaced by NULL in the ETI
        ("stop q-grams", §4.2).
    column_weights:
        Optional per-column importance multipliers (§5.2).  Any non-empty
        tuple of finite positive values with a finite sum is accepted;
        they are normalized internally (the paper normalizes W_1..W_n to
        sum to 1).
    allow_transpositions:
        Enable the token transposition operation in fms (§5.3).
    transposition_cost:
        Cost function for a transposition.
    transposition_constant:
        Cost used when ``transposition_cost`` is CONSTANT; must be
        non-negative (not NaN).
    use_osc:
        Enable optimistic short circuiting in query processing (§4.3.2).
    seed:
        Seed of the min-hash family (signatures must be identical between
        ETI build and query processing).
    """

    q: int = 4
    signature_size: int = 2
    scheme: SignatureScheme = SignatureScheme.QGRAMS_PLUS_TOKEN
    k: int = 1
    min_similarity: float = 0.0
    token_insertion_factor: float = 0.5
    stop_qgram_threshold: int = 10_000
    column_weights: tuple[float, ...] | None = None
    allow_transpositions: bool = False
    transposition_cost: TranspositionCost = TranspositionCost.AVERAGE
    transposition_constant: float = 0.5
    use_osc: bool = True
    seed: int = 2003

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("q must be positive")
        if self.signature_size < 0:
            raise ValueError("signature_size must be non-negative")
        if self.signature_size == 0 and self.scheme is SignatureScheme.QGRAMS:
            raise ValueError("Q_0 is not a valid scheme: no coordinates at all")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 <= self.min_similarity < 1.0:
            raise ValueError("min_similarity must be in [0, 1)")
        if not 0.0 <= self.token_insertion_factor <= 1.0:
            raise ValueError("token_insertion_factor must be in [0, 1]")
        if self.stop_qgram_threshold < 1:
            raise ValueError("stop_qgram_threshold must be positive")
        if self.column_weights is not None:
            # NaN, inf or an overflowing sum would turn every normalized
            # weight, and so every similarity, into NaN or 0.0.
            if not self.column_weights:
                raise ValueError("column weights must not be empty")
            if not all(0.0 < w < math.inf for w in self.column_weights):
                raise ValueError("column weights must be finite and positive")
            if not math.isfinite(sum(self.column_weights)):
                raise ValueError("column weights must have a finite sum")
        if not self.transposition_constant >= 0.0:
            # Also rejects NaN.  The fms DP's completion bound and its
            # pre-DP cost bound both assume no operation costs below zero.
            raise ValueError("transposition_constant must be non-negative")

    @property
    def strategy_label(self) -> str:
        """The paper's strategy notation, e.g. ``Q_2`` or ``Q+T_3``."""
        if self.scheme is SignatureScheme.FULL_QGRAMS:
            return "Full"
        return f"{self.scheme.value}_{self.signature_size}"

    def normalized_column_weights(self, num_columns: int) -> tuple[float, ...]:
        """Per-column multipliers scaled so the average multiplier is 1.

        With no configured weights every column gets 1.0 (plain fms).  The
        paper normalizes W_1..W_n to sum to 1; scaling them to *average* 1
        is the same ranking with the convenient property that uniform
        weights reduce to the unweighted function exactly.
        """
        if self.column_weights is None:
            return (1.0,) * num_columns
        if len(self.column_weights) != num_columns:
            raise ValueError(
                f"{len(self.column_weights)} column weights for "
                f"{num_columns} columns"
            )
        total = sum(self.column_weights)
        scale = num_columns / total
        return tuple(w * scale for w in self.column_weights)

    def with_(self, **changes: Any) -> "MatchConfig":
        """Return a copy with ``changes`` applied (convenience wrapper)."""
        return replace(self, **changes)
