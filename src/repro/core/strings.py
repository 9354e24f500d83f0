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
number than the reference DP would produce.  Nothing here is memoized:
the fms DP keeps the distances one query computes with that query
(:mod:`repro.core.fms`).

:func:`char_mask` and :func:`distance_lower_bound_raw` give the cheap
character-set lower bound that settles most token pairs of the fms
pre-DP bound without computing a distance.
"""

from __future__ import annotations

from repro.core.kernels import MYERS_MIN_PATTERN, classic_distance, myers_distance


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


def char_mask(s: str) -> int:
    """The character set of ``s`` folded into 64 bits: bit ``ord(ch) & 63``
    is set for every character ``ch`` of ``s``."""
    mask = 0
    for ch in s:
        mask |= 1 << (ord(ch) & 63)
    return mask


def distance_lower_bound_raw(s1: str, mask1: int, s2: str, mask2: int) -> int:
    """A lower bound on :func:`edit_distance_raw` of two *distinct* strings.

    ``mask1`` / ``mask2`` are their :func:`char_mask`.  The bound is
    ``max(1, |len s1 − len s2|, popcount(mask1 & ~mask2),
    popcount(mask2 & ~mask1))``: distinct strings differ by at least one
    edit, the length gap must be inserted or deleted, and a bit set on one
    side only stands for at least one character the other string lacks,
    which must be substituted or deleted (or inserted) by an edit of its
    own.  Two characters sharing a bit only make the bound looser.
    """
    return max(
        1,
        abs(len(s1) - len(s2)),
        (mask1 & ~mask2).bit_count(),
        (mask2 & ~mask1).bit_count(),
    )


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
