"""Golden answers: the query pipeline's behaviour, pinned bit for bit.

Each configuration runs the same seeded dirty tuples through a fresh
matcher and hashes, per query, the ``(tid, similarity)`` list and every
integer/bool :class:`MatchStats` field (plus ``degraded_reason``).  The
expected digests were captured at the commit *before* `_match_indexed`
was split into stages; a refactor that changes an answer, a counter, or
the order in which candidates are fetched shows up here.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core.config import MatchConfig
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


class _PollBudget:
    """Stands in for a :class:`QueryBudget`; its meter counts polls, not time."""

    unlimited = False

    def __init__(self, polls: int) -> None:
        self.polls = polls

    def start(self, pool=None) -> SpentAfter:
        return SpentAfter(self.polls, "page_fetches")


# name -> (strategy, match kwargs, inputs)
CONFIGS: dict[str, tuple[str, dict, int]] = {
    "osc": ("osc", {}, INPUTS),
    "basic": ("basic", {}, INPUTS),
    "naive": ("naive", {}, NAIVE_INPUTS),
    "osc_k3_c06": ("osc", {"k": 3, "min_similarity": 0.6}, INPUTS),
    "basic_k3": ("basic", {"k": 3}, INPUTS),
    "basic_k3_budget_lookups": ("basic", {"k": 3, "budget": _PollBudget(9)}, INPUTS),
    "osc_k2_budget_verify": ("osc", {"k": 2, "budget": _PollBudget(40)}, INPUTS),
}

EXPECTED: dict[str, str] = {
    "osc": "244ba2989424adfdaf405001daa99ca564339194a20526119e31adacf5dc63bf",
    "basic": "b88fe41ba4fbea95382e9466721b6cecfadfe22ab20418b05dd854b6c5918df9",
    "naive": "19c69c925a486bf4f7cb5d02d509775484b3d9c36b327d5ce11cd63f7f541a12",
    "osc_k3_c06": "75c4256fa0970767d74afa45451d82418c66d39283ffea941cf2b25a4a590e25",
    "basic_k3": "0f865395ca1040ff34cfe95ad3f5fd957bbd94fe45fbd1944f1383652bdcef70",
    "basic_k3_budget_lookups": "0f0976919c027c1f79d9b38732f8edb68ae45c2dc5ff11c97696b05f72c7eb03",
    "osc_k2_budget_verify": "6b21ae06ddc1ec28ce25b67ff4eaf2fb556b0d78cc585524a144caa13b1aaea8",
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
    strategy, kwargs, count = CONFIGS[name]
    matcher = FuzzyMatcher(reference, weights, config, eti)
    sha = hashlib.sha256()
    for values in inputs[:count]:
        result = matcher.match(values, strategy=strategy, **kwargs)
        stats = dataclasses.asdict(result.stats)
        row = (
            [(m.tid, repr(m.similarity)) for m in result.matches],
            sorted(
                (key, value)
                for key, value in stats.items()
                if isinstance(value, (bool, int)) or key == "degraded_reason"
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
