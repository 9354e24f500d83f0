"""Character-level string primitives: edit distance and q-gram sets.

The paper's definitions (Section 3):

- ``ed(s1, s2)`` is the minimum number of character edit operations (insert,
  delete, substitute) to transform ``s1`` into ``s2``, *normalized by the
  maximum of the two lengths*.  The worked example: ed("company",
  "corporation") = 7/11 ≈ 0.64.
- ``QG_q(s)`` is the set of all length-q substrings of ``s`` (Section 4.1);
  3-gram set of "boeing" = {boe, oei, ein, ing}.  For strings shorter than
  ``q`` we follow the paper's short-token convention and use the string
  itself as its only "gram".

Distance computation is delegated to :mod:`repro.core.kernels`: the
bit-parallel Myers kernel for everything but the tiniest operands, and the
classic DP (with preallocated rows) as the small-operand fallback.  All
kernels are exact and parity-tested, so callers never see a different
number than the reference DP would produce.  The fms DP's token pairs go
through :func:`cached_edit_distance`, whose one bounded cross-query memo
holds exact normalized distances only.
"""

from __future__ import annotations

from repro.core.cache import BoundedMemo
from repro.core.kernels import MYERS_MIN_PATTERN, classic_distance, myers_distance

# token-pair -> exact normalized distance (keys are canonically ordered).
# Exposed read-only as ``exact_distance_memo`` so the fms DP's inner loop
# and its pre-DP cost bound can probe it with a single dict lookup; all
# writes happen here.
_ED_CACHE = BoundedMemo()
exact_distance_memo = _ED_CACHE


def edit_distance_raw(s1: str, s2: str) -> int:
    """Unnormalized Levenshtein distance between ``s1`` and ``s2``.

    Routed through the kernel layer: operands whose shorter side reaches
    :data:`repro.core.kernels.MYERS_MIN_PATTERN` use the bit-parallel
    Myers kernel; smaller ones use the classic DP fallback, which
    preallocates its two row buffers and writes cells by index.
    """
    if s1 == s2:
        return 0
    if not s1:
        return len(s2)
    if not s2:
        return len(s1)
    if min(len(s1), len(s2)) < MYERS_MIN_PATTERN:
        return classic_distance(s1, s2)
    return myers_distance(s1, s2)


def edit_distance(s1: str, s2: str) -> float:
    """Edit distance normalized by ``max(len(s1), len(s2))``, in [0, 1].

    Two empty strings are at distance 0.
    """
    longest = max(len(s1), len(s2))
    if longest == 0:
        return 0.0
    return edit_distance_raw(s1, s2) / longest


def clear_edit_distance_caches() -> None:
    """Drop the cross-query edit-distance memo (benchmark bracketing)."""
    _ED_CACHE.clear()


def cached_edit_distance(s1: str, s2: str) -> float:
    """Memoized :func:`edit_distance` for the token-pair hot path.

    The fms transformation-cost DP compares each input token against each
    reference token of the candidate set; candidates share tokens heavily
    (think 'seattle', 'wa'), so memoization pays off.  The argument order is
    canonicalized because ``edit_distance`` is symmetric.
    """
    if s2 < s1:
        s1, s2 = s2, s1
    key = (s1, s2)
    value = _ED_CACHE.get(key)
    if value is not None:
        return value
    value = edit_distance(s1, s2)
    _ED_CACHE.store(key, value)
    return value


def qgram_set(s: str, q: int) -> frozenset[str]:
    """The set ``QG_q(s)`` of all length-q substrings of ``s``.

    Follows the paper's short-token convention: a string shorter than ``q``
    contributes itself as its only gram, so q-gram similarity degrades to
    exact match for very short tokens instead of being undefined.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if len(s) <= q:
        return frozenset((s,)) if s else frozenset()
    return frozenset(s[i : i + q] for i in range(len(s) - q + 1))


def jaccard(set1: frozenset[str] | set, set2: frozenset[str] | set) -> float:
    """Jaccard coefficient ``|S1 ∩ S2| / |S1 ∪ S2|`` (0 for two empty sets)."""
    if not set1 and not set2:
        return 0.0
    intersection = len(set1 & set2)
    union = len(set1) + len(set2) - intersection
    return intersection / union


def tuple_edit_similarity(
    u: tuple[str | None, ...], v: tuple[str | None, ...]
) -> float:
    """Tuple-level edit-distance similarity — the paper's *ed* baseline.

    Used in the ed-vs-fms accuracy experiment (Section 6.2.1.1).  Each
    column pair is compared with normalized edit distance; the per-column
    distances are combined weighted by the column's share of the total
    character length, which matches the implicit length-proportional
    weighting of Equation (1) in Section 3.2 while still respecting column
    boundaries.  ``None`` (missing) values are treated as empty strings.
    Returns a similarity in [0, 1].
    """
    if len(u) != len(v):
        raise ValueError("tuples must have the same number of columns")
    total_length = 0
    weighted_distance = 0.0
    for a, b in zip(u, v):
        a = (a or "").lower()
        b = (b or "").lower()
        longest = max(len(a), len(b))
        if longest == 0:
            continue
        total_length += longest
        weighted_distance += edit_distance_raw(a, b)
    if total_length == 0:
        return 1.0
    return 1.0 - weighted_distance / total_length
