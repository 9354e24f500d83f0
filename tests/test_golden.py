"""Golden answers: the query pipeline's behaviour, pinned bit for bit.

Each configuration runs the same seeded dirty tuples through a fresh
matcher and hashes, per query, the ``(tid, similarity)`` list and every
integer/bool :class:`MatchStats` field (plus ``degraded_reason``) except
the ``*_cache_hits`` / ``*_cache_misses`` six: cache accounting says how
an answer was computed, not what it is.  The first seven digests were
captured at the commit *before* the token-weight and signature LRUs were
deleted, the three ``*swaps*`` ones at the commit before the pre-DP cost
lower bound; a refactor that changes an answer, a counter, or the order
in which candidates are fetched shows up here.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core.config import MatchConfig, TranspositionCost
from repro.core.matcher import FuzzyMatcher
from repro.core.reference import ReferenceTable
from repro.core.weights import build_frequency_cache
from repro.data.datasets import DatasetSpec, make_dataset
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.eti.builder import build_eti

from tests.conftest import SpentAfter

REFERENCE_SIZE = 600
INPUTS = 300
NAIVE_INPUTS = 60  # the naive scan is |R| fms evaluations per query


# fms with §5.3 transpositions and §5.2 column weights: neither changes the
# ETI, so these matchers share the default-config index.
SWAPS_WEIGHTED = {
    "allow_transpositions": True,
    "column_weights": (3.0, 1.0, 0.5, 2.0),
}
SWAPS_MIN_WEIGHTED = {**SWAPS_WEIGHTED, "transposition_cost": TranspositionCost.MINIMUM}


def _spent_after(polls: int):
    """Per-query stand-in deadlines that count polls, not time."""
    return lambda: SpentAfter(polls, "page_fetches")


# name -> (strategy, match kwargs, inputs, MatchConfig changes); a callable
# kwarg is called afresh for every query
CONFIGS: dict[str, tuple[str, dict, int, dict]] = {
    "osc": ("osc", {}, INPUTS, {}),
    "basic": ("basic", {}, INPUTS, {}),
    "naive": ("naive", {}, NAIVE_INPUTS, {}),
    "osc_k3_c06": ("osc", {"k": 3, "min_similarity": 0.6}, INPUTS, {}),
    "basic_k3": ("basic", {"k": 3}, INPUTS, {}),
    "basic_k3_budget_lookups": ("basic", {"k": 3, "deadline": _spent_after(9)}, INPUTS, {}),
    "osc_k2_budget_verify": ("osc", {"k": 2, "deadline": _spent_after(40)}, INPUTS, {}),
    "osc_swaps_weighted": ("osc", {}, INPUTS, SWAPS_WEIGHTED),
    "basic_k3_swaps_min_weighted": ("basic", {"k": 3}, INPUTS, SWAPS_MIN_WEIGHTED),
    "naive_swaps_weighted": ("naive", {}, NAIVE_INPUTS, SWAPS_WEIGHTED),
}

EXPECTED: dict[str, str] = {
    "osc": "668951e6fe34f2998a8a7da0c98503ef296c028ab47fb79a0e249c446b31e7a8",
    "basic": "bc80d8ddeef0fb4e0cd3bda6eb9cbe7e1c3b83652f750959aca122ef13ee0a19",
    "naive": "a26b5954a3056731058684cd5e9b69eb6f86c907de819d3dcb52085505cabe83",
    "osc_k3_c06": "79bcff7a38ee9df56c08f5ad9242e63a6b328adf7385b561123e0afcee02aa9a",
    "basic_k3": "95bb242aebea6db0a146d3efca467ef79d5572ca45b754f947b0ee764663f4a8",
    "basic_k3_budget_lookups": "a57190cebc1ce4c31f07582dff88340e075380c876fcf521c3fc943cde5b7cdb",
    "osc_k2_budget_verify": "712e1aa95735d055489626fa3d543f41715787a5a28a2fcec959b9275ebc1882",
    "osc_swaps_weighted": "d5af91b849bd79282e6393a7258a77ba450e0fbe13c4a3885ace7c65c2ebfc02",
    "basic_k3_swaps_min_weighted": "52b536fe10cd18d45e550c79534f83623a82953e0496e68632553e121011e069",
    "naive_swaps_weighted": "a909714d0840144bf1538e398ed3c540f683a5e3e57a1ab766ff58440dc8f9f8",
}


def build_world():
    db = Database.in_memory()
    reference = ReferenceTable(db, "customer", list(CUSTOMER_COLUMNS))
    customers = generate_customers(REFERENCE_SIZE, seed=2003, unique=True)
    rows = [(c.tid, c.values) for c in customers]
    reference.load(rows)
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    config = MatchConfig()
    eti, _ = build_eti(db, reference, config)
    dirty = make_dataset(rows, DatasetSpec.preset("D2"), INPUTS, seed=13)
    return db, (reference, weights, config, eti, [d.values for d in dirty.inputs])


@pytest.fixture(scope="module")
def world():
    db, built = build_world()
    yield built
    db.close()


def digest(world, name: str) -> str:
    reference, weights, config, eti, inputs = world
    strategy, kwargs, count, changes = CONFIGS[name]
    matcher = FuzzyMatcher(reference, weights, config.with_(**changes), eti)
    sha = hashlib.sha256()
    for values in inputs[:count]:
        fresh = {key: value() if callable(value) else value for key, value in kwargs.items()}
        result = matcher.match(values, strategy=strategy, **fresh)
        stats = dataclasses.asdict(result.stats)
        row = (
            [(m.tid, repr(m.similarity)) for m in result.matches],
            sorted(
                (key, value)
                for key, value in stats.items()
                if (isinstance(value, (bool, int)) or key == "degraded_reason")
                and not key.endswith(("_cache_hits", "_cache_misses"))
            ),
        )
        sha.update(repr(row).encode())
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_answers_and_counters_match_the_parent_commit(world, name):
    assert digest(world, name) == EXPECTED[name]


if __name__ == "__main__":
    _, built = build_world()
    for config_name in CONFIGS:
        print(f'    "{config_name}": "{digest(built, config_name)}",')
