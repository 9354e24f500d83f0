"""Edit-distance kernels: bit-parallel Myers, banded DP, and the router.

The verification step of a fuzzy-match query spends almost all of its time
computing Levenshtein distances between token pairs (the per-cell cost of
the transformation DP in :mod:`repro.core.fms`).  This module provides
three interchangeable kernels that compute the *same* function — the
unnormalized Levenshtein distance — at different cost profiles:

- :func:`classic_distance` — the reference ``O(m·n)`` dynamic program with
  preallocated rows.  Always exact; the parity baseline for the others.
- :func:`myers_distance` — Myers' bit-parallel algorithm (*A Fast
  Bit-Vector Algorithm for Approximate String Matching*, JACM 1999, in the
  column-wise formulation of Hyyrö 2003).  One machine-word of DP column
  state per pattern character block gives ``O(⌈m/w⌉·n)`` word operations.
  Python integers are arbitrary precision, so the "block" variant for
  patterns longer than a machine word is the same code path: the bit
  vectors simply grow past 64 bits and each bitwise operation processes
  every block at once.
- :func:`bounded_distance` — a Ukkonen-style banded DP that only fills
  cells within ``limit`` of the diagonal and returns early once the band's
  running minimum exceeds the cutoff.  The return value is the exact
  distance when it is ``<= limit`` and otherwise a *certified lower bound*
  greater than ``limit`` — which is all a thresholded caller needs.

:func:`best_distance` routes between the classic and Myers kernels by
operand size; :func:`repro.core.strings.edit_distance_raw` delegates to
it, so every edit-distance consumer in the repository shares the fast
path.  A seeded randomized parity suite (``tests/test_kernels.py``)
asserts the three kernels agree bit-for-bit; the perf ledger's
``core.kernels.*`` metrics count how often each one runs.

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
    kernel, ``myers_words`` counts outer-loop iterations of the
    bit-parallel kernel (one per text character), ``banded_cells``
    counts band cells filled, and ``banded_early_exits`` counts calls
    that abandoned with a certified lower bound instead of an exact
    distance.  Counter updates are lockless increments; concurrent
    queries may under-count slightly, which only ever distorts
    reporting, never answers.
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
        self._banded_calls = registry.counter(
            "repro_kernel_banded_calls_total", relaxed=True
        )
        self._banded_cells = registry.counter(
            "repro_kernel_banded_cells_total", relaxed=True
        )
        self._banded_early_exits = registry.counter(
            "repro_kernel_banded_early_exits_total", relaxed=True
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

    @property
    def banded_calls(self) -> int:
        """Calls routed to the banded kernel."""
        return self._banded_calls.value()

    @property
    def banded_cells(self) -> int:
        """Band cells filled by the banded kernel."""
        return self._banded_cells.value()

    @property
    def banded_early_exits(self) -> int:
        """Banded calls that returned a certified lower bound."""
        return self._banded_early_exits.value()

    def add_classic(self, cells: int) -> None:
        """Count one classic-DP call filling ``cells`` cells."""
        self._classic_calls.inc()
        self._classic_cells.inc(cells)

    def add_myers(self, words: int) -> None:
        """Count one bit-parallel call over ``words`` text characters."""
        self._myers_calls.inc()
        self._myers_words.inc(words)

    def add_banded_call(self) -> None:
        """Count one banded-kernel call."""
        self._banded_calls.inc()

    def add_banded_cells(self, cells: int) -> None:
        """Count ``cells`` band cells filled."""
        self._banded_cells.inc(cells)

    def add_banded_early_exit(self) -> None:
        """Count one early exit with a certified lower bound."""
        self._banded_early_exits.inc()

    def snapshot(self) -> tuple[int, ...]:
        """The counter values at this instant, for before/after deltas."""
        return (
            self.classic_calls,
            self.classic_cells,
            self.myers_calls,
            self.myers_words,
            self.banded_calls,
            self.banded_cells,
            self.banded_early_exits,
        )

    def reset(self) -> None:
        """Zero every counter (benchmark bracketing)."""
        self._classic_calls.reset()
        self._classic_cells.reset()
        self._myers_calls.reset()
        self._myers_words.reset()
        self._banded_calls.reset()
        self._banded_cells.reset()
        self._banded_early_exits.reset()


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


def bounded_distance(s1: str, s2: str, limit: int) -> int:
    """Banded Levenshtein distance with a ``limit`` early exit.

    Returns the exact distance when it is ``<= limit``; otherwise returns
    ``limit + 1`` (or the length difference, when that alone exceeds the
    cutoff), which is a *certified lower bound* on the true distance —
    callers that only need "does the distance clear this threshold" get
    their answer without paying for the full DP.

    Cells farther than ``limit`` from the diagonal can never hold a value
    ``<= limit`` (``D[i][j] >= |i - j|``), so only a ``2·limit + 1`` band
    is filled, and the scan abandons as soon as the band's running row
    minimum exceeds the cutoff: banded cell values only over-estimate
    out-of-threshold distances, and a cell whose true value is within the
    threshold is computed exactly (its optimal path stays inside the
    band), so a row minimum above ``limit`` proves every completion is
    above ``limit`` too.  A negative ``limit`` short-circuits.
    """
    if s1 == s2:
        return 0
    if limit < 0:
        return 1
    if len(s2) < len(s1):
        s1, s2 = s2, s1
    m = len(s1)
    n = len(s2)
    if n - m > limit:
        return n - m
    COUNTERS.add_banded_call()
    # previous[j] = banded D[i-1][j]; cells outside row i-1's band are
    # stale and are never read (the col guards below enforce the band).
    previous = list(range(m + 1))
    current = [0] * (m + 1)
    big = m + n  # larger than any true distance
    cells = 0
    for row, c2 in enumerate(s2, start=1):
        low = row - limit
        if low < 1:
            low = 1
        high = row + limit
        if high > m:
            high = m
        if low == 1:
            current[0] = row  # true D[i][0]; in-band while row <= limit + 1
            row_min = row
        else:
            row_min = big
        prev_diag = previous[low - 1]
        for col in range(low, high + 1):
            cost = prev_diag + (s1[col - 1] != c2)
            if col < row + limit:  # the cell above is inside row i-1's band
                cost_del = previous[col] + 1
                if cost_del < cost:
                    cost = cost_del
            if col > low or low == 1:  # the cell left is inside this band
                cost_ins = current[col - 1] + 1
                if cost_ins < cost:
                    cost = cost_ins
            current[col] = cost
            if cost < row_min:
                row_min = cost
            prev_diag = previous[col]
        cells += high - low + 1
        if row_min > limit:
            COUNTERS.add_banded_cells(cells)
            COUNTERS.add_banded_early_exit()
            return limit + 1
        previous, current = current, previous
    COUNTERS.add_banded_cells(cells)
    distance = previous[m]
    if distance > limit:
        # Banded values may over-estimate once past the cutoff; only the
        # threshold verdict is certified.
        COUNTERS.add_banded_early_exit()
        return limit + 1
    return distance


def best_distance(s1: str, s2: str) -> int:
    """Exact Levenshtein distance via the cheapest applicable kernel.

    Tiny operands (pattern shorter than :data:`MYERS_MIN_PATTERN`) go to
    the classic DP, everything else to the bit-parallel kernel.  Both are
    exact, so routing is purely a performance decision.
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
