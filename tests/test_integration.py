"""Cross-module integration: full pipelines at moderate scale."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MatchConfig
from repro.core.matcher import FuzzyMatcher
from repro.core.reference import ReferenceTable
from repro.core.weights import build_frequency_cache
from repro.data.datasets import DatasetSpec, make_dataset
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.eti.builder import build_eti
from repro.eval.metrics import accuracy


@pytest.fixture(scope="module")
def pipeline():
    """A 800-tuple warehouse with ETI, weights, and matcher."""
    db = Database.in_memory()
    customers = generate_customers(800, seed=99, unique=True)
    reference = ReferenceTable(db, "customer", list(CUSTOMER_COLUMNS))
    reference.load((c.tid, c.values) for c in customers)
    config = MatchConfig()
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    eti, build_stats = build_eti(db, reference, config)
    matcher = FuzzyMatcher(reference, weights, config, eti)
    return {
        "db": db,
        "customers": customers,
        "reference": reference,
        "weights": weights,
        "config": config,
        "eti": eti,
        "build_stats": build_stats,
        "matcher": matcher,
    }


class TestEndToEndPipeline:
    def test_every_clean_tuple_matches_itself(self, pipeline):
        for customer in pipeline["customers"][:100]:
            result = pipeline["matcher"].match(customer.values)
            assert result.best is not None
            assert result.best.similarity == pytest.approx(1.0)
            assert pipeline["reference"].fetch(result.best.tid) == customer.values

    def test_d2_accuracy_at_scale(self, pipeline):
        dataset = make_dataset(
            [(c.tid, c.values) for c in pipeline["customers"]],
            DatasetSpec.preset("D2"),
            120,
            seed=17,
        )
        predictions = []
        for dirty in dataset.inputs:
            result = pipeline["matcher"].match(dirty.values)
            predictions.append(
                (result.best.tid if result.best else None, dirty.target_tid)
            )
        assert accuracy(predictions) > 0.85

    def test_strategies_agree_on_dirty_batch(self, pipeline):
        dataset = make_dataset(
            [(c.tid, c.values) for c in pipeline["customers"]],
            DatasetSpec.preset("D3"),
            40,
            seed=23,
        )
        disagreements = 0
        for dirty in dataset.inputs:
            naive = pipeline["matcher"].match(dirty.values, strategy="naive")
            osc = pipeline["matcher"].match(dirty.values, strategy="osc")
            if naive.best is None:
                continue
            if osc.best is None or abs(
                osc.best.similarity - naive.best.similarity
            ) > 1e-9:
                disagreements += 1
        assert disagreements <= 3

    def test_eti_size_accounting(self, pipeline):
        stats = pipeline["build_stats"]
        assert stats.reference_tuples == 800
        eti_stats = pipeline["eti"].stats()
        assert eti_stats["rows"] == stats.eti_rows
        assert eti_stats["index_entries"] == stats.eti_rows
        # ETI rows are bounded by pre-ETI rows (grouping only merges).
        assert stats.eti_rows <= stats.pre_eti_rows

    def test_osc_is_cheaper_than_basic(self, pipeline):
        dataset = make_dataset(
            [(c.tid, c.values) for c in pipeline["customers"]],
            DatasetSpec.preset("D2"),
            40,
            seed=31,
        )
        basic_fetches = osc_fetches = 0
        for dirty in dataset.inputs:
            basic_fetches += pipeline["matcher"].match(
                dirty.values, strategy="basic"
            ).stats.candidates_fetched
            osc_fetches += pipeline["matcher"].match(
                dirty.values, strategy="osc"
            ).stats.candidates_fetched
        assert osc_fetches < basic_fetches

    def test_k3_returns_superset_of_k1(self, pipeline):
        dirty = ("jamse smith", "seattle", "wa", "10023")
        top1 = pipeline["matcher"].match(dirty, k=1)
        top3 = pipeline["matcher"].match(dirty, k=3)
        if top1.best is not None:
            assert top1.best.tid in [m.tid for m in top3.matches]
            assert len(top3.matches) >= len(top1.matches)

    def test_buffer_pool_served_the_workload(self, pipeline):
        stats = pipeline["db"].pool.stats
        assert stats.logical_accesses > 0
        # Everything fits in the default pool: high hit rate expected.
        assert stats.hit_rate > 0.9


name_strategy = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz ", min_size=1, max_size=25
).filter(lambda s: s.strip())


class TestPropertyBasedMatcher:
    @settings(max_examples=30, deadline=None)
    @given(name=name_strategy, city=name_strategy)
    def test_arbitrary_inputs_never_crash(self, pipeline, name, city):
        result = pipeline["matcher"].match((name, city, "wa", "99999"))
        for match in result.matches:
            assert 0.0 <= match.similarity <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(index=st.integers(0, 799))
    def test_self_match_property(self, pipeline, index):
        customer = pipeline["customers"][index]
        result = pipeline["matcher"].match(customer.values)
        assert result.best is not None
        assert result.best.similarity == pytest.approx(1.0)

    @settings(max_examples=20, deadline=None)
    @given(index=st.integers(0, 799), k=st.integers(1, 5))
    def test_matches_sorted_and_bounded(self, pipeline, index, k):
        customer = pipeline["customers"][index]
        result = pipeline["matcher"].match(customer.values, k=k)
        similarities = [m.similarity for m in result.matches]
        assert len(result.matches) <= k
        assert similarities == sorted(similarities, reverse=True)
