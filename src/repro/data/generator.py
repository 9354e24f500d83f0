"""Synthetic Customer[name, city, state, zipcode] reference relation.

Stands in for the paper's proprietary 1.7M-tuple warehouse relation.  The
generator preserves what the experiments measure:

- *Token frequency variance*: name tokens are sampled from Zipf-like
  distributions, so IDF weights vary widely — the property both fms and
  optimistic short circuiting exploit.  City/state/zip tokens repeat across
  many tuples (low weight); surnames and business words are rarer (high
  weight).
- *Multi-token values*: person names have 2–3 tokens, business names 2–3,
  several cities are multi-token — exercising token transposition, merge
  and truncation errors.
- *Column correlation*: zip codes are derived from the city, so the
  zipcode column carries information like real postal data.

Everything is deterministic in ``seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

from repro.data import pools

CUSTOMER_COLUMNS = ("name", "city", "state", "zipcode")


def _zipf_cum_weights(n: int, exponent: float) -> list[float]:
    """Cumulative unnormalized Zipf weights 1/rank^exponent for n ranks.

    Accumulated once per pool: ``random.choices(cum_weights=...)`` draws
    the same stream as ``weights=...`` without re-summing on every call.
    """
    return list(accumulate(1.0 / (rank**exponent) for rank in range(1, n + 1)))


@dataclass(frozen=True)
class CustomerTuple:
    """One clean reference tuple."""

    tid: int
    name: str
    city: str
    state: str
    zipcode: str

    @property
    def values(self) -> tuple[str, str, str, str]:
        return (self.name, self.city, self.state, self.zipcode)


class CustomerGenerator:
    """Seeded generator of clean customer tuples.

    ``business_fraction`` of tuples carry organization names (built from
    business words plus a suffix such as 'corporation'), the rest person
    names; this matters because organization suffixes are the frequent,
    low-IDF tokens the paper's examples revolve around.
    """

    def __init__(
        self,
        seed: int = 42,
        business_fraction: float = 0.25,
        zipf_exponent: float = 1.1,
        extended_pools: bool = True,
    ) -> None:
        if not 0.0 <= business_fraction <= 1.0:
            raise ValueError("business_fraction must be in [0, 1]")
        self.seed = seed
        self.business_fraction = business_fraction
        # Extended pools append a synthesized long tail of rare tokens so
        # IDF variance resembles real name data even at 10k+ tuples.
        if extended_pools:
            self._given_pool = pools.EXTENDED_GIVEN_NAMES
            self._surname_pool = pools.EXTENDED_SURNAMES
            self._word_pool = pools.EXTENDED_BUSINESS_WORDS
        else:
            self._given_pool = pools.GIVEN_NAMES
            self._surname_pool = pools.SURNAMES
            self._word_pool = pools.BUSINESS_WORDS
        self._rng = random.Random(seed)
        self._given_cum = _zipf_cum_weights(len(self._given_pool), zipf_exponent)
        self._surname_cum = _zipf_cum_weights(len(self._surname_pool), zipf_exponent)
        self._word_cum = _zipf_cum_weights(len(self._word_pool), zipf_exponent)
        self._suffix_cum = _zipf_cum_weights(
            len(pools.BUSINESS_SUFFIXES), zipf_exponent + 0.4
        )
        self._city_cum = _zipf_cum_weights(len(pools.CITIES), zipf_exponent)

    def _person_name(self) -> str:
        rng = self._rng
        given = rng.choices(self._given_pool, cum_weights=self._given_cum)[0]
        surname = rng.choices(self._surname_pool, cum_weights=self._surname_cum)[0]
        if rng.random() < 0.3:
            middle = rng.choice(pools.MIDDLE_INITIALS)
            return f"{given} {middle} {surname}"
        return f"{given} {surname}"

    def _business_name(self) -> str:
        rng = self._rng
        words = rng.choices(
            self._word_pool, cum_weights=self._word_cum, k=rng.choice((1, 1, 2))
        )
        suffix = rng.choices(pools.BUSINESS_SUFFIXES, cum_weights=self._suffix_cum)[0]
        return " ".join(dict.fromkeys(words)) + " " + suffix

    def _location(self) -> tuple[str, str, str]:
        rng = self._rng
        index = rng.choices(range(len(pools.CITIES)), cum_weights=self._city_cum)[0]
        city, state = pools.CITIES[index]
        # Zips cluster per city: a city has a 3-digit prefix shared by all
        # its customers and a 2-digit local part, like real ZIP allocation.
        prefix = 100 + (index * 7) % 900
        suffix = rng.randrange(100)
        zipcode = f"{prefix:03d}{suffix:02d}"
        return city, state, zipcode

    def generate(self, count: int, start_tid: int = 0) -> Iterator[CustomerTuple]:
        """Yield ``count`` customer tuples with tids from ``start_tid``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        for offset in range(count):
            if self._rng.random() < self.business_fraction:
                name = self._business_name()
            else:
                name = self._person_name()
            city, state, zipcode = self._location()
            yield CustomerTuple(start_tid + offset, name, city, state, zipcode)


def generate_customers(
    count: int,
    seed: int = 42,
    business_fraction: float = 0.25,
    unique: bool = False,
) -> list[CustomerTuple]:
    """Generate a list of ``count`` clean customer tuples.

    With ``unique=True`` exact value duplicates are discarded and
    generation continues until ``count`` distinct tuples exist (tids are
    reassigned to stay sequential).  The paper's reference relation is
    clean — fuzzy duplicates eliminated before fuzzy match is deployed —
    and duplicate reference tuples would make seed-tuple accuracy
    ill-defined (two tuples tie at similarity 1.0).
    """
    generator = CustomerGenerator(seed=seed, business_fraction=business_fraction)
    if not unique:
        return list(generator.generate(count))
    seen: set[tuple[str, str, str, str]] = set()
    result: list[CustomerTuple] = []
    rounds = 0
    while len(result) < count:
        rounds += 1
        if rounds > 200:
            raise ValueError(
                f"could not generate {count} unique tuples (pool too small)"
            )
        for candidate in generator.generate(count - len(result), start_tid=0):
            if candidate.values in seen:
                continue
            seen.add(candidate.values)
            result.append(CustomerTuple(len(result), *candidate.values))
    return result
