"""IDF token weights and the token-frequency cache (§3, §4.4.1).

The weight of token ``t`` in column ``i`` is ``IDF(t, i) = log(|R| /
freq(t, i))`` where ``freq(t, i)`` counts reference tuples whose column ``i``
token set contains ``t``.  A token unseen in column ``i`` is assumed to be an
erroneous version of *some* reference token, so it receives the average
weight of all (distinct) tokens in that column.

Three cache implementations mirror §4.4.1:

- :class:`TokenFrequencyCache` — the plain in-memory dict ("given current
  main memory sizes ... this assumption is valid").
- :class:`HashedTokenFrequencyCache` — "cache without collisions": tokens
  are replaced by a 1-1 cryptographic hash to shrink the entry size.
- :class:`BoundedTokenFrequencyCache` — "cache with collisions": at most M
  buckets; colliding tokens share a bucket, trading accuracy for memory.
"""

from __future__ import annotations

import hashlib
import math
from functools import reduce
from operator import add
from typing import Iterable, Protocol, Sequence

from repro.core.tokens import TupleTokens


class WeightFunction(Protocol):
    """What the similarity functions need from a weight provider."""

    def weight(self, token: str, column: int) -> float:
        """``w(t, i)``: the token's weight in column ``i``."""
        ...

    def frequency(self, token: str, column: int) -> int:
        """``freq(t, i)``: reference tuples containing the token."""
        ...


class _BaseFrequencyCache:
    """Shared IDF arithmetic over a concrete frequency store."""

    def __init__(self, num_tuples: int, num_columns: int) -> None:
        if num_tuples < 1:
            raise ValueError("reference relation must be non-empty")
        self.num_tuples = num_tuples
        self.num_columns = num_columns
        self._column_totals = [0.0] * num_columns
        self._column_counts = [0] * num_columns
        self._column_averages: list[float] | None = None

    # -- subclass hooks --------------------------------------------------

    def frequency(self, token: str, column: int) -> int:
        raise NotImplementedError

    # -- shared API -------------------------------------------------------

    def idf(self, frequency: int) -> float:
        """``log(|R| / freq)``, the raw IDF value."""
        return math.log(self.num_tuples / frequency)

    def average_weight(self, column: int) -> float:
        """Average IDF of all distinct tokens in ``column``.

        This is the weight assigned to unseen (presumed erroneous) tokens.
        A column with no tokens at all falls back to the maximum possible
        IDF, ``log(|R|)``, treating the phantom token as maximally rare.
        """
        if self._column_averages is None:
            averages = []
            for col in range(self.num_columns):
                if self._column_counts[col]:
                    averages.append(self._column_totals[col] / self._column_counts[col])
                else:
                    averages.append(math.log(self.num_tuples) if self.num_tuples > 1 else 1.0)
            self._column_averages = averages
        return self._column_averages[column]

    def weight(self, token: str, column: int) -> float:
        """``w(t, i)``: IDF if the token occurs in the column, else average.

        A token appearing in every tuple has IDF 0 (the paper keeps that —
        it contributes nothing either way).  Weights are clamped at 0: the
        bounded ("with collisions") cache can merge bucket counts past
        ``|R|``, which would otherwise go negative.
        """
        freq = self.frequency(token, column)
        if freq > 0:
            return max(self.idf(freq), 0.0)
        return self.average_weight(column)

    def tuple_weight(self, tokens: TupleTokens) -> float:
        """``w(u)``: total weight of the token set ``tok(u)``."""
        return sum(self.weight(t, col) for t, col in tokens.all_tokens())

    def _accumulate(self, column: int, frequency: int) -> None:
        self._column_totals[column] += self.idf(frequency)
        self._column_counts[column] += 1
        self._column_averages = None


class TokenFrequencyCache(_BaseFrequencyCache):
    """Plain main-memory token-frequency cache: one ``token -> freq`` dict
    per column.

    The only variant that also supports *incremental maintenance*
    (:meth:`add_tuple` / :meth:`remove_tuple`): column averages are
    recomputed lazily from the live frequency maps, and ``|R|`` tracks the
    mutations — down to 0 when the relation empties — so IDF weights stay
    exact as the reference relation changes (pair with
    :class:`repro.eti.maintenance.EtiMaintainer`).
    """

    def __init__(self, num_tuples: int, num_columns: int) -> None:
        super().__init__(num_tuples, num_columns)
        self._frequencies: list[dict[str, int]] = [{} for _ in range(num_columns)]

    def frequency(self, token: str, column: int) -> int:
        """``freq(t, i)``: stored frequency, 0 if unseen."""
        return self._frequencies[column].get(token, 0)

    def average_weight(self, column: int) -> float:
        """Average IDF over the live frequency maps (recomputed on change).

        Each distinct frequency's weight is computed once per refresh, and
        each column's weights are folded left to right in its map's order
        from 0.0 — so the averages are the same floats a per-entry loop
        gives (``sum`` would not be: it compensates float error).
        """
        if self._column_averages is None:
            distinct = set().union(*(column_map.values() for column_map in self._frequencies))
            weight_of = {freq: max(self.idf(freq), 0.0) for freq in distinct}.__getitem__
            fallback = math.log(self.num_tuples) if self.num_tuples > 1 else 1.0
            self._column_averages = [
                reduce(add, map(weight_of, column_map.values()), 0.0) / len(column_map)
                if column_map
                else fallback
                for column_map in self._frequencies
            ]
        return self._column_averages[column]

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def add_tuple(self, values: Sequence[str | None]) -> None:
        """Account for one reference tuple being inserted."""
        tokens = TupleTokens.from_values(values)
        if tokens.num_columns != self.num_columns:
            raise ValueError(
                f"{tokens.num_columns} columns for a {self.num_columns}-column cache"
            )
        self.num_tuples += 1
        for token, column in tokens.all_tokens():
            column_map = self._frequencies[column]
            column_map[token] = column_map.get(token, 0) + 1
        self._column_averages = None

    def remove_tuple(self, values: Sequence[str | None]) -> None:
        """Account for one reference tuple being deleted."""
        tokens = TupleTokens.from_values(values)
        if tokens.num_columns != self.num_columns:
            raise ValueError(
                f"{tokens.num_columns} columns for a {self.num_columns}-column cache"
            )
        if self.num_tuples < 1:
            raise ValueError("no reference tuple left to remove")
        self.num_tuples -= 1
        for token, column in tokens.all_tokens():
            column_map = self._frequencies[column]
            current = column_map.get(token, 0)
            if current <= 1:
                column_map.pop(token, None)
            else:
                column_map[token] = current - 1
        self._column_averages = None

    def set_frequency(self, token: str, column: int, frequency: int) -> None:
        """Record one token's frequency (each entry set exactly once)."""
        if frequency < 1:
            raise ValueError("stored frequencies must be positive")
        column_map = self._frequencies[column]
        if token in column_map:
            raise ValueError(f"frequency for {(column, token)!r} already set")
        column_map[token] = frequency
        self._accumulate(column, frequency)

    @property
    def num_entries(self) -> int:
        return sum(map(len, self._frequencies))

    def distinct_tokens(self, column: int) -> int:
        """Number of distinct tokens stored for ``column``."""
        return len(self._frequencies[column])


class HashedTokenFrequencyCache(_BaseFrequencyCache):
    """"Cache without collisions" (§4.4.1): tokens stored as MD5 digests.

    The 1-1 hash (collision probability negligible) shrinks each entry to a
    fixed-size key; weights are bit-exact equal to the plain cache.
    """

    def __init__(self, num_tuples: int, num_columns: int) -> None:
        super().__init__(num_tuples, num_columns)
        self._frequencies: dict[tuple[int, bytes], int] = {}

    @staticmethod
    def _digest(token: str) -> bytes:
        return hashlib.md5(token.encode("utf-8")).digest()

    def frequency(self, token: str, column: int) -> int:
        """``freq(t, i)`` via the token's digest."""
        return self._frequencies.get((column, self._digest(token)), 0)

    def set_frequency(self, token: str, column: int, frequency: int) -> None:
        """Record one token's frequency under its digest."""
        if frequency < 1:
            raise ValueError("stored frequencies must be positive")
        key = (column, self._digest(token))
        if key in self._frequencies:
            raise ValueError(f"frequency for token {token!r} already set")
        self._frequencies[key] = frequency
        self._accumulate(column, frequency)

    @property
    def num_entries(self) -> int:
        return len(self._frequencies)


class BoundedTokenFrequencyCache(_BaseFrequencyCache):
    """"Cache with collisions" (§4.4.1): at most ``max_entries`` buckets.

    Tokens hash into a fixed bucket table; colliding tokens share one
    frequency counter, so weights may be under-estimated for rare tokens
    colliding with frequent ones.  The paper flags this as the least
    preferred option; it exists here so the accuracy impact can be measured.
    """

    def __init__(self, num_tuples: int, num_columns: int, max_entries: int) -> None:
        super().__init__(num_tuples, num_columns)
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._buckets: dict[int, int] = {}

    def _bucket(self, token: str, column: int) -> int:
        digest = hashlib.md5(f"{column}:{token}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little") % self.max_entries

    def frequency(self, token: str, column: int) -> int:
        """The token's *bucket* frequency (may include collisions)."""
        return self._buckets.get(self._bucket(token, column), 0)

    def add_frequency(self, token: str, column: int, frequency: int) -> None:
        """Accumulate ``frequency`` into the token's bucket.

        Unlike the exact caches this is additive: collisions merge counts,
        which is exactly the accuracy hazard §4.4.1 describes.
        """
        if frequency < 1:
            raise ValueError("stored frequencies must be positive")
        bucket = self._bucket(token, column)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + frequency
        self._accumulate(column, frequency)

    # The bounded cache reuses add_frequency for the builder protocol.
    set_frequency = add_frequency

    @property
    def num_entries(self) -> int:
        return len(self._buckets)


def build_frequency_cache(
    tuples: Iterable[Sequence[str | None]],
    num_columns: int,
    cache: _BaseFrequencyCache | None = None,
    num_tuples: int | None = None,
) -> _BaseFrequencyCache:
    """Build a token-frequency cache by scanning reference tuples.

    ``tuples`` yields the attribute values (no tid column).  ``freq(t, i)``
    counts tuples whose column-i token *set* contains ``t`` — a token
    repeated inside one attribute value counts once, per the paper's
    set-based definition.

    When ``cache`` is None a plain :class:`TokenFrequencyCache` is built;
    pass a pre-sized hashed or bounded cache to use the §4.4.1 variants
    (``num_tuples`` must then match the scan).
    """
    counts: dict[tuple[int, str], int] = {}
    scanned = 0
    for values in tuples:
        scanned += 1
        tokens = TupleTokens.from_values(values)
        for column in range(num_columns):
            for token in tokens.column_tokens(column):
                key = (column, token)
                counts[key] = counts.get(key, 0) + 1
    if cache is None:
        cache = TokenFrequencyCache(max(scanned, 1), num_columns)
    elif num_tuples is not None and num_tuples != scanned:
        raise ValueError(f"cache sized for {num_tuples} tuples, scanned {scanned}")
    for (column, token), freq in sorted(counts.items()):
        cache.set_frequency(token, column, freq)
    return cache
