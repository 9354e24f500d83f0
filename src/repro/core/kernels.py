"""Edit-distance kernels: bit-parallel Myers and the classic DP.

The verification step of a fuzzy-match query spends almost all of its time
computing Levenshtein distances between token pairs (the per-cell cost of
the transformation DP in :mod:`repro.core.fms`).  This module provides
two interchangeable kernels that compute the *same* function — the
unnormalized Levenshtein distance — at different cost profiles:

- :func:`classic_distance` — the reference ``O(m·n)`` dynamic program with
  preallocated rows.  Always exact; the parity baseline for Myers.
- :func:`myers_distance` — Myers' bit-parallel algorithm (*A Fast
  Bit-Vector Algorithm for Approximate String Matching*, JACM 1999, in the
  column-wise formulation of Hyyrö 2003).  One machine-word of DP column
  state per pattern character block gives ``O(⌈m/w⌉·n)`` word operations.
  Python integers are arbitrary precision, so the "block" variant for
  patterns longer than a machine word is the same code path: the bit
  vectors simply grow past 64 bits and each bitwise operation processes
  every block at once.

:func:`repro.core.strings.edit_distance_raw` routes between them by
operand size, so every edit-distance consumer in the repository shares
the fast path.  A seeded randomized parity suite
(``tests/test_kernels.py``) asserts the two kernels agree bit-for-bit;
the perf ledger's ``core.kernels.*`` metrics count how often each runs.

All kernels are pure functions of their string arguments — no clocks, no
randomness — which the reprolint ``determinism`` rule now enforces for
this module.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry, default_registry

#: Patterns shorter than this go to the classic DP: for one- and
#: two-character tokens the bit-vector setup costs more than the handful
#: of DP cells it replaces.
MYERS_MIN_PATTERN = 3


class KernelCounters:
    """Cumulative work counters for the edit-distance kernels.

    A view over relaxed counters in the process-global metrics registry
    (``repro_kernel_*_total`` series).  Benchmarks and tests
    snapshot/diff these to *measure* (not assert) where distance work
    went: ``classic_cells`` counts DP cells filled by the reference
    kernel and ``myers_words`` counts outer-loop iterations of the
    bit-parallel kernel (one per text character).  Counter updates are
    lockless increments; concurrent queries may under-count slightly,
    which only ever distorts reporting, never answers.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        if registry is None:
            registry = default_registry()
        self._classic_calls = registry.counter(
            "repro_kernel_classic_calls_total", relaxed=True
        )
        self._classic_cells = registry.counter(
            "repro_kernel_classic_cells_total", relaxed=True
        )
        self._myers_calls = registry.counter(
            "repro_kernel_myers_calls_total", relaxed=True
        )
        self._myers_words = registry.counter(
            "repro_kernel_myers_words_total", relaxed=True
        )

    @property
    def classic_calls(self) -> int:
        """Calls routed to the classic DP kernel."""
        return self._classic_calls.value()

    @property
    def classic_cells(self) -> int:
        """DP cells filled by the classic kernel."""
        return self._classic_cells.value()

    @property
    def myers_calls(self) -> int:
        """Calls routed to the bit-parallel kernel."""
        return self._myers_calls.value()

    @property
    def myers_words(self) -> int:
        """Outer-loop iterations of the bit-parallel kernel."""
        return self._myers_words.value()

    def add_classic(self, cells: int) -> None:
        """Count one classic-DP call filling ``cells`` cells."""
        self._classic_calls.inc()
        self._classic_cells.inc(cells)

    def add_myers(self, words: int) -> None:
        """Count one bit-parallel call over ``words`` text characters."""
        self._myers_calls.inc()
        self._myers_words.inc(words)

    def snapshot(self) -> tuple[int, ...]:
        """The counter values at this instant, for before/after deltas."""
        # The last three slots (a deleted banded kernel's calls, cells and
        # early exits) are always 0; kept only because the frozen perf
        # ledger, benchmarks/ledger/workloads.py, unpacks seven values.
        # The benchmark-only change of ROADMAP item 1(c) owes their removal.
        return (
            self.classic_calls,
            self.classic_cells,
            self.myers_calls,
            self.myers_words,
            0,
            0,
            0,
        )

    def reset(self) -> None:
        """Zero every counter (benchmark bracketing)."""
        self._classic_calls.reset()
        self._classic_cells.reset()
        self._myers_calls.reset()
        self._myers_words.reset()


#: Module-wide counter instance shared by every kernel call.
COUNTERS = KernelCounters()


def classic_distance(s1: str, s2: str) -> int:
    """Reference ``O(m·n)`` Levenshtein DP with preallocated rows.

    The two row buffers are allocated once and written by index — no
    per-cell ``list.append`` — and the shorter string is kept in the inner
    loop so the working set is ``O(min(m, n))``.
    """
    if s1 == s2:
        return 0
    if not s1:
        return len(s2)
    if not s2:
        return len(s1)
    if len(s2) < len(s1):
        s1, s2 = s2, s1
    m = len(s1)
    COUNTERS.add_classic(m * len(s2))
    previous = list(range(m + 1))
    current = [0] * (m + 1)
    for row, c2 in enumerate(s2, start=1):
        current[0] = row
        prev_diag = previous[0]
        for col in range(1, m + 1):
            cost_sub = prev_diag + (s1[col - 1] != c2)
            cost_del = previous[col] + 1
            if cost_del < cost_sub:
                cost_sub = cost_del
            cost_ins = current[col - 1] + 1
            if cost_ins < cost_sub:
                cost_sub = cost_ins
            current[col] = cost_sub
            prev_diag = previous[col]
        previous, current = current, previous
    return previous[m]


def myers_distance(s1: str, s2: str) -> int:
    """Myers/Hyyrö bit-parallel Levenshtein distance.

    The shorter string becomes the pattern: its positions map to bits of
    the ``Peq`` match masks, and each character of the text updates the
    whole DP column with a constant number of word operations.  Python's
    arbitrary-precision integers make the multi-word ("block") variant
    automatic — a 200-character pattern just uses 200-bit vectors, and
    every ``|``/``&``/``+`` processes all ⌈m/64⌉ words per operation.
    """
    if s1 == s2:
        return 0
    if not s1:
        return len(s2)
    if not s2:
        return len(s1)
    if len(s2) < len(s1):
        s1, s2 = s2, s1
    m = len(s1)
    COUNTERS.add_myers(len(s2))
    peq: dict[str, int] = {}
    bit = 1
    for ch in s1:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    full = bit - 1
    last = bit >> 1
    pv = full
    mv = 0
    score = m
    get = peq.get
    # ph/mh are left unmasked between steps: Python's two's-complement
    # semantics for negative ints keep every bit below m correct, and the
    # single `& full` on pv re-normalizes the carried state each round.
    for ch in s2:
        eq = get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return score
