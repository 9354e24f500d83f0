"""Token weights served from the ETI itself (§4.3.1's alternative).

"We can store these frequencies in the ETI and fetch them by issuing a SQL
query per token."  With the Q+T signature scheme the ETI already contains
one row per (token, column) at coordinate 0 whose ``frequency`` field is
exactly ``freq(t, i)``, so IDF weights can be computed with one clustered-
index lookup per token — no separate main-memory token-frequency cache.

This trades the cache's memory for a lookup per weight request (which the
paper flags as the slower option); it exists so deployments with tight
memory, or those wanting a single persisted artifact, can run without the
cache.  fms asks for a weight per token pair, so ``weight`` and
``frequency`` answer repeats from a bounded memo; like ``num_tuples`` and
the column averages it is fixed for the provider's lifetime, so build a
new provider after ETI maintenance.  Column-average weights for unseen tokens are computed lazily
from one scan over the ETI's coordinate-0 rows.
"""

from __future__ import annotations

import math

from repro.core.cache import BoundedMemo
from repro.eti.index import EtiIndex
from repro.eti.signature import TOKEN_COORDINATE


class EtiWeightProvider:
    """IDF weights backed by ETI coordinate-0 (whole-token) rows.

    Requires an ETI built with the ``Q+T`` signature scheme; an ETI without
    token rows makes every token look unseen, which this class detects and
    rejects at construction time.
    """

    def __init__(self, eti: EtiIndex, num_tuples: int, num_columns: int) -> None:
        if num_tuples < 1:
            raise ValueError("reference relation must be non-empty")
        self.eti = eti
        self.num_tuples = num_tuples
        self.num_columns = num_columns
        self._averages: list[float] | None = None
        self._memo = BoundedMemo()
        if not self._has_token_rows():
            raise ValueError(
                "the ETI has no coordinate-0 token rows; build it with the "
                "Q+T signature scheme to serve weights from it"
            )

    def _has_token_rows(self) -> bool:
        return any(
            row[1] == TOKEN_COORDINATE for row in self.eti.relation.scan()
        )

    def frequency(self, token: str, column: int) -> int:
        """``freq(t, i)`` via one clustered-index lookup (memoized)."""
        return self._entry(token, column)[0]

    def weight(self, token: str, column: int) -> float:
        """``w(t, i)``: IDF if present, column-average otherwise."""
        return self._entry(token, column)[1]

    def _entry(self, token: str, column: int) -> tuple[int, float]:
        key = (column, token)
        entry = self._memo.get(key)
        if entry is None:
            found = self.eti.lookup(token, TOKEN_COORDINATE, column)
            freq = found.frequency if found is not None else 0
            entry = (
                freq,
                math.log(self.num_tuples / freq)
                if freq > 0
                else self._column_average(column),
            )
            self._memo.store(key, entry)
        return entry

    def _column_average(self, column: int) -> float:
        if self._averages is None:
            totals = [0.0] * self.num_columns
            counts = [0] * self.num_columns
            for row in self.eti.relation.scan():
                _, coordinate, col, frequency, _ = row
                if coordinate != TOKEN_COORDINATE or not 0 <= col < self.num_columns:
                    continue
                totals[col] += math.log(self.num_tuples / frequency)
                counts[col] += 1
            fallback = math.log(self.num_tuples) if self.num_tuples > 1 else 1.0
            self._averages = [
                totals[c] / counts[c] if counts[c] else fallback
                for c in range(self.num_columns)
            ]
        return self._averages[column]
