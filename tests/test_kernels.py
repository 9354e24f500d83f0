"""Edit-distance kernels and budgeted verification: exactness by sweep.

The fast path is only allowed to be fast, never different: a seeded
randomized sweep (> 10k pairs, covering unicode, > 64-char tokens, empty
strings, and the short-token cases q-gram handling cares about) asserts
the Myers bit-parallel kernel and the size-based router agree with the
classic reference DP, and a matcher-level A/B proves candidates
abandoned by the verification cost budget never belonged in the top-K.
"""

import random

import pytest

from repro.core import matcher as matcher_module
from repro.core.config import MatchConfig
from repro.core.fms import fms, fms_budgeted, prepare_input, transformation_cost
from repro.core.kernels import (
    COUNTERS,
    MYERS_MIN_PATTERN,
    classic_distance,
    myers_distance,
)
from repro.core.matcher import FuzzyMatcher
from repro.core.reference import ReferenceTable
from repro.core.strings import clear_edit_distance_caches, edit_distance_raw
from repro.core.tokens import TupleTokens
from repro.core.weights import build_frequency_cache
from repro.data.datasets import DatasetSpec, make_dataset
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.eti.builder import build_eti

ALPHABETS = (
    "abcdefghijklmnopqrstuvwxyz",
    "ab",  # high-collision: exercises dense match masks
    "abcdefghijklmnopqrstuvwxyz0123456789",
    "αβγδεζηθικλμνξο",  # non-ASCII codepoints
    "日本語処理系統",  # multi-byte unicode
)


def random_pair(rng):
    """One seeded token pair drawn from the sweep's category mix."""
    category = rng.randrange(10)
    if category == 0:
        # Empty / near-empty operands.
        alphabet = rng.choice(ALPHABETS)
        short = "".join(rng.choice(alphabet) for _ in range(rng.randrange(3)))
        return ("", short) if rng.random() < 0.5 else (short, "")
    if category == 1:
        # Below the Myers routing threshold (q-gram short-token zone).
        alphabet = rng.choice(ALPHABETS)
        length = rng.randrange(1, MYERS_MIN_PATTERN)
        return (
            "".join(rng.choice(alphabet) for _ in range(length)),
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 8))),
        )
    if category == 2:
        # Long tokens: patterns past one 64-bit word (block variant).
        alphabet = rng.choice(ALPHABETS)
        s1 = "".join(rng.choice(alphabet) for _ in range(rng.randint(65, 110)))
        chars = list(s1)
        for _ in range(rng.randrange(12)):
            chars[rng.randrange(len(chars))] = rng.choice(alphabet)
        return s1, "".join(chars)
    alphabet = rng.choice(ALPHABETS)
    s1 = "".join(rng.choice(alphabet) for _ in range(rng.randint(3, 24)))
    if rng.random() < 0.5:
        # Mutated near-duplicate, the verification hot case.
        chars = list(s1)
        for _ in range(rng.randrange(1, 5)):
            op = rng.random()
            position = rng.randrange(len(chars)) if chars else 0
            if op < 0.4 and chars:
                chars[position] = rng.choice(alphabet)
            elif op < 0.7 and chars:
                del chars[position]
            else:
                chars.insert(position, rng.choice(alphabet))
        return s1, "".join(chars)
    return s1, "".join(rng.choice(alphabet) for _ in range(rng.randint(3, 24)))


class TestKernelParity:
    def test_randomized_sweep(self):
        """> 10k seeded pairs: Myers == router == classic."""
        rng = random.Random(2003)
        for _ in range(10_500):
            s1, s2 = random_pair(rng)
            classic = classic_distance(s1, s2)
            assert myers_distance(s1, s2) == classic, (s1, s2)
            assert edit_distance_raw(s1, s2) == classic, (s1, s2)

    def test_known_distances(self):
        assert myers_distance("company", "corporation") == 7
        assert classic_distance("company", "corporation") == 7
        assert myers_distance("", "") == 0
        assert myers_distance("abc", "abc") == 0


def build_world(num_reference, num_inputs, seed, config=None):
    """A seeded reference relation, ETI, and error-injected query batch."""
    customers = generate_customers(num_reference, seed=seed, unique=True)
    rows = [(c.tid, c.values) for c in customers]
    db = Database.in_memory()
    reference = ReferenceTable(db, "reference", list(CUSTOMER_COLUMNS))
    reference.load(rows)
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    if config is None:
        config = MatchConfig(q=4, signature_size=2)
    eti, _ = build_eti(db, reference, config)
    dataset = make_dataset(rows, DatasetSpec.preset("D2"), num_inputs, seed=seed + 1)
    queries = [dirty.values for dirty in dataset.inputs]
    return db, rows, reference, weights, config, eti, queries


@pytest.fixture(scope="module")
def budget_world():
    db, rows, reference, weights, config, eti, queries = build_world(
        num_reference=150, num_inputs=40, seed=21
    )
    yield rows, reference, weights, config, eti, queries
    db.close()


class TestBudgetedDp:
    def test_transformation_cost_budget_contract(self, budget_world):
        """Never above exact; at or under budget means exact."""
        rows, _, weights, config, _, queries = budget_world
        rng = random.Random(5)
        abandons = 0
        for dirty in queries:
            u = TupleTokens.from_values(dirty)
            v = TupleTokens.from_values(rows[rng.randrange(len(rows))][1])
            for column in range(u.num_columns):
                exact = transformation_cost(
                    u.sequences[column], v.sequences[column], column,
                    weights, config,
                )
                budget = exact * rng.choice((0.25, 0.9, 1.1))
                got = transformation_cost(
                    u.sequences[column], v.sequences[column], column,
                    weights, config, budget=budget,
                )
                assert got <= exact + 1e-12, (dirty, column)
                if got <= budget:
                    assert got == exact, (dirty, column)
                elif got < exact:
                    abandons += 1  # certified lower bound, DP abandoned early
        assert abandons > 0, "budget never abandoned a DP"

    def test_fms_budgeted_matches_fms_without_budget(self, budget_world):
        rows, _, weights, config, _, queries = budget_world
        for dirty in queries[:10]:
            u = TupleTokens.from_values(dirty)
            v = TupleTokens.from_values(rows[0][1])
            similarity, pruned = fms_budgeted(u, v, weights, config)
            assert not pruned
            assert similarity == fms(u, v, weights, config)

    def test_fms_budgeted_prune_is_sound(self, budget_world):
        """A pruned candidate's exact similarity cannot reach the bar."""
        rows, _, weights, config, _, queries = budget_world
        rng = random.Random(17)
        pruned_seen = 0
        for dirty in queries:
            u = prepare_input(TupleTokens.from_values(dirty), weights, config)
            v = TupleTokens.from_values(rows[rng.randrange(len(rows))][1])
            budget = 0.25 * u.weight
            upper, pruned = fms_budgeted(u, v, weights, config, cost_budget=budget)
            exact = fms(u, v, weights, config)
            if pruned:
                pruned_seen += 1
                bar = 1.0 - budget / u.weight
                assert exact <= bar + 1e-9, (dirty, upper)
                assert exact <= upper + 1e-12, (dirty, upper)
            else:
                assert upper == exact, dirty
        assert pruned_seen > 0, "budget never pruned a candidate"


class TestBudgetedVerificationTopK:
    @pytest.mark.parametrize("strategy", ["basic", "osc"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_top_k_bit_identical_and_prunes_fire(self, k, strategy, monkeypatch):
        """Budget-abandoned candidates never appear in the returned top-K.

        The proof is the strongest available: the budgeted matcher must
        return *exactly* the exhaustive matcher's top-K (tids and
        similarities), while demonstrably pruning candidates along the
        way.  The exhaustive side is the same matcher with the cost
        budget dropped before it reaches fms.  (OSC's stopping-test
        verifications are always exact; the prunes it reports come from
        the shared finish loop it falls back to when the stopping test
        never passes.)
        """
        db, _, reference, weights, config, eti, queries = build_world(
            num_reference=150, num_inputs=50, seed=33,
            config=MatchConfig(q=4, signature_size=2, k=k, use_osc=True),
        )
        budgeted_fms = matcher_module.fms_budgeted

        def exhaustive_fms(*args, cost_budget=None, **kwargs):
            return budgeted_fms(*args, **kwargs)

        try:
            matcher = FuzzyMatcher(reference, weights, config, eti)
            prunes = 0
            for dirty in queries:
                with monkeypatch.context() as patch:
                    patch.setattr(matcher_module, "fms_budgeted", exhaustive_fms)
                    expected = matcher.match(dirty, k=k, strategy=strategy)
                got = matcher.match(dirty, k=k, strategy=strategy)
                assert [(m.tid, m.similarity) for m in got.matches] == [
                    (m.tid, m.similarity) for m in expected.matches
                ], dirty
                prunes += got.stats.verify_budget_prunes
                assert expected.stats.verify_budget_prunes == 0
            if k == 1:
                assert prunes > 0, "budget never pruned any candidate"
        finally:
            db.close()


class TestKernelCounters:
    def test_snapshot_keeps_seven_slots_with_the_banded_ones_zero(self, budget_world):
        """The perf ledger unpacks seven values; the last three stay 0."""
        _, reference, weights, config, eti, queries = budget_world
        clear_edit_distance_caches()
        before = COUNTERS.snapshot()
        FuzzyMatcher(reference, weights, config, eti).match(queries[0])
        after = COUNTERS.snapshot()
        assert len(before) == len(after) == 7
        assert after[4:] == (0, 0, 0)
        assert after[:4] != before[:4]  # the query did call a kernel
