"""Score accumulation for candidate set determination (§4.3.1).

While q-gram tid-lists stream in from the ETI, every tid accumulates a
score equal to the sum of the weights of the q-grams whose lists it
appeared in.  Two details from the paper are implemented exactly:

- *New-tid admission*: a tid not yet in the table is only added while the
  total weight of the q-grams still to be looked up could lift a fresh tid
  past the similarity threshold ("We add a new tid to the hash table only
  if the total weight ... yet to be looked up ... is greater than or equal
  to w(u)·c").  This bounds the hash table size.
- *Adjustment term*: per token whose signature contributes at least one
  lookup, ``w(t)·(1 − 1/q)`` is added to an adjustment that corrects for
  approximating edit distance by q-gram overlap (Figure 3, step 7).

The OSC fetching test asks for the ``top(K + 1)`` tids after every
lookup.  Rather than re-selecting them from every scored tid each time,
the table keeps the selection current as scores change.  That is sound
because **scores only grow**: a credited weight is an IDF weight (≥ 0 in
the frequency caches, which clamp it) times a positive column weight
(:class:`~repro.core.config.MatchConfig` admits no other), so a tid's
sort key ``(−score, tid)`` only ever decreases.  A tid in the selection
therefore never falls out of it except when displaced by an outsider
whose key drops below the selection's worst, and one comparison per
credited tid keeps the selection equal to ``heapq.nsmallest`` over all
scores.  A negative weight (an unclamped provider whose token counts
outgrew its ``|R|``) would break that, so it drops the selection and the
next :meth:`ScoreTable.top` selects afresh.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence


@dataclass
class ScoreTableStats:
    """Counters the paper reports in Figures 8–9.

    ``top_cache_hits`` counts :meth:`ScoreTable.top` calls answered from
    the selection the table keeps current, without a re-select over every
    scored tid — every call but the first for a given count.
    """

    tids_processed: int = 0
    tids_admitted: int = 0
    tids_rejected: int = 0
    top_cache_hits: int = 0


class ScoreTable:
    """Accumulates per-tid similarity scores from ETI tid-lists."""

    def __init__(self, threshold: float) -> None:
        """``threshold`` is ``w(u) · c``, the admission bar for new tids."""
        self.threshold = threshold
        self.scores: dict[int, float] = {}
        self.stats = ScoreTableStats()
        # The kept top-`_count` selection as ascending (-score, tid) keys,
        # once top() asked for one; _floor is its worst score when full
        # (-inf while it is not), the cheap test every credited tid meets.
        self._count = 0
        self._selection: list[tuple[float, int]] | None = None
        self._floor = -math.inf

    def __len__(self) -> int:
        return len(self.scores)

    def add_tid_list(
        self,
        tids: Sequence[int],
        weight: float,
        remaining_weight: float,
    ) -> None:
        """Credit ``weight`` to every tid in one fetched tid-list.

        ``remaining_weight`` is the total weight of all signature q-grams
        not yet looked up (including this one): the best score a brand-new
        tid could still reach.  New tids are admitted only while that bound
        meets the threshold.  The counters come from lengths, not per-tid
        increments: every tid is processed, the table's growth is what was
        admitted, and a tid the bar turned away was filtered out in C.
        """
        scores = self.scores
        before = len(scores)
        if remaining_weight >= self.threshold:
            credited = tids
        else:
            credited = list(filter(scores.__contains__, tids))
        if weight < 0.0:
            self._selection = None  # scores may fall: select afresh
        # Only a score that reaches the selection's worst can change it.
        floor = math.inf if self._selection is None else self._floor
        get = scores.get
        for tid in credited:
            current = get(tid)
            score = weight if current is None else current + weight
            scores[tid] = score
            if score >= floor:
                self._offer(tid, score)
                floor = self._floor
        stats = self.stats
        stats.tids_processed += len(tids)
        stats.tids_admitted += len(scores) - before
        stats.tids_rejected += len(tids) - len(credited)

    def _offer(self, tid: int, score: float) -> None:
        """Keep the selection the ``_count`` smallest ``(−score, tid)`` keys
        after ``tid``'s score rose to ``score``."""
        selection = self._selection
        assert selection is not None
        key = (-score, tid)
        full = len(selection) >= self._count
        if full and (not selection or key >= selection[-1]):
            return  # a tie on score that loses on tid, or count 0
        for index, (_, kept) in enumerate(selection):
            if kept == tid:
                del selection[index]
                break
        else:
            if full:
                selection.pop()
        bisect.insort(selection, key)
        if len(selection) >= self._count:
            self._floor = -selection[-1][0]

    def score(self, tid: int) -> float:
        """Current accumulated score of ``tid`` (0.0 if untracked)."""
        return self.scores.get(tid, 0.0)

    def top(self, count: int) -> list[tuple[int, float]]:
        """The ``count`` highest-scoring tids, best first.

        Ties break on tid for determinism (the paper breaks ties
        arbitrarily; fixing an order makes runs reproducible).  The first
        call for a ``count`` selects from every scored tid; from then on
        :meth:`add_tid_list` keeps that selection current, and later calls
        read it (``stats.top_cache_hits``).  Callers get a fresh list, so
        mutating the result is safe.
        """
        selection = self._selection
        if selection is not None and self._count == count:
            self.stats.top_cache_hits += 1
        else:
            selection = heapq.nsmallest(
                count, ((-score, tid) for tid, score in self.scores.items())
            )
            self._count = count
            self._selection = selection
            self._floor = (
                -selection[-1][0] if count > 0 and len(selection) >= count else -math.inf
            )
        return [(tid, -negative) for negative, tid in selection]

    def candidates(self, score_floor: float) -> list[tuple[int, float]]:
        """All tids with score ≥ ``score_floor``, best first (step 11).

        Ties break on tid.  Two C-level sorts give the ``(−score, tid)``
        order without a Python key call per tid: by tid, then a stable
        sort on score, descending (``reverse=True`` keeps equal scores in
        their tid order).
        """
        items = [
            (tid, score) for tid, score in self.scores.items() if score >= score_floor
        ]
        items.sort()
        items.sort(key=itemgetter(1), reverse=True)
        return items
