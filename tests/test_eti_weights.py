"""ETI-resident token weights (§4.3.1's frequencies-in-the-ETI option)."""

import pytest

from repro.core.config import MatchConfig, SignatureScheme
from repro.core.matcher import FuzzyMatcher
from repro.eti.builder import build_eti
from repro.eti.weights import EtiWeightProvider


@pytest.fixture()
def qt_config():
    return MatchConfig(q=3, signature_size=2, scheme=SignatureScheme.QGRAMS_PLUS_TOKEN)


@pytest.fixture()
def qt_eti(org_db, org_reference, qt_config):
    eti, _ = build_eti(org_db, org_reference, qt_config)
    return eti


def count_lookups(eti, monkeypatch):
    """Record every ``eti.lookup`` key from now on."""
    calls = []
    lookup = eti.lookup
    monkeypatch.setattr(eti, "lookup", lambda *key: calls.append(key) or lookup(*key))
    return calls


class TestEtiWeightProvider:
    def test_matches_frequency_cache(
        self, qt_eti, org_reference, org_weights, monkeypatch
    ):
        calls = count_lookups(qt_eti, monkeypatch)
        provider = EtiWeightProvider(
            qt_eti, len(org_reference), org_reference.num_columns
        )
        for token, column in [
            ("boeing", 0),
            ("corporation", 0),
            ("seattle", 1),
            ("wa", 2),
            ("98004", 3),
        ]:
            assert provider.frequency(token, column) == org_weights.frequency(
                token, column
            )
            for _ in range(2):  # computed, then answered from the memo
                assert provider.weight(token, column) == pytest.approx(
                    org_weights.weight(token, column)
                )
            lookups = len(calls)
            provider.weight(token, column)
            assert len(calls) == lookups

    def test_unseen_token_gets_column_average(self, qt_eti, org_reference, org_weights):
        provider = EtiWeightProvider(
            qt_eti, len(org_reference), org_reference.num_columns
        )
        assert provider.weight("beoing", 0) == pytest.approx(
            org_weights.weight("beoing", 0)
        )

    def test_lookups_counted(self, qt_eti, org_reference, monkeypatch):
        provider = EtiWeightProvider(
            qt_eti, len(org_reference), org_reference.num_columns
        )
        calls = count_lookups(qt_eti, monkeypatch)
        provider.frequency("boeing", 0)
        assert len(calls) == 1

    def test_rejects_qgram_only_eti(self, org_db, org_reference):
        config = MatchConfig(q=3, signature_size=2, scheme=SignatureScheme.QGRAMS)
        eti, _ = build_eti(org_db, org_reference, config, eti_name="eti_q")
        with pytest.raises(ValueError, match="Q\\+T"):
            EtiWeightProvider(eti, len(org_reference), org_reference.num_columns)

    def test_rejects_empty_reference(self, qt_eti):
        with pytest.raises(ValueError, match="non-empty"):
            EtiWeightProvider(qt_eti, 0, 4)

    def test_matcher_runs_on_eti_weights(self, qt_eti, org_reference, qt_config):
        """End-to-end: a matcher with no in-memory frequency cache."""
        provider = EtiWeightProvider(
            qt_eti, len(org_reference), org_reference.num_columns
        )
        matcher = FuzzyMatcher(org_reference, provider, qt_config, qt_eti)
        result = matcher.match(("Beoing Company", "Seattle", "WA", "98004"))
        assert result.best is not None
        assert result.best.tid == 1

    def test_same_ranking_as_cache(self, qt_eti, org_reference, org_weights, qt_config):
        provider = EtiWeightProvider(
            qt_eti, len(org_reference), org_reference.num_columns
        )
        cache_matcher = FuzzyMatcher(org_reference, org_weights, qt_config, qt_eti)
        eti_matcher = FuzzyMatcher(org_reference, provider, qt_config, qt_eti)
        for values in [
            ("Beoing Company", "Seattle", "WA", "98004"),
            ("Boeing Corporation", "Seattle", "WA", "98004"),
            ("Companions", "Seattle", "WA", "98024"),
        ]:
            a = cache_matcher.match(values).best
            b = eti_matcher.match(values).best
            assert a.tid == b.tid
            assert a.similarity == pytest.approx(b.similarity)
