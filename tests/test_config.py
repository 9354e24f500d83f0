"""MatchConfig validation and helpers."""

import pytest

from repro.core.config import MatchConfig, SignatureScheme, TranspositionCost


class TestValidation:
    def test_paper_defaults(self):
        config = MatchConfig()
        assert config.q == 4
        assert config.k == 1
        assert config.min_similarity == 0.0
        assert config.token_insertion_factor == 0.5
        assert config.stop_qgram_threshold == 10_000

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            MatchConfig(q=0)

    def test_negative_signature_size(self):
        with pytest.raises(ValueError):
            MatchConfig(signature_size=-1)

    def test_q_zero_scheme_invalid(self):
        with pytest.raises(ValueError, match="Q_0"):
            MatchConfig(signature_size=0, scheme=SignatureScheme.QGRAMS)

    def test_qt_zero_valid(self):
        config = MatchConfig(signature_size=0, scheme=SignatureScheme.QGRAMS_PLUS_TOKEN)
        assert config.strategy_label == "Q+T_0"

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            MatchConfig(k=0)

    def test_invalid_min_similarity(self):
        with pytest.raises(ValueError):
            MatchConfig(min_similarity=1.0)
        with pytest.raises(ValueError):
            MatchConfig(min_similarity=-0.1)

    def test_invalid_cins(self):
        with pytest.raises(ValueError):
            MatchConfig(token_insertion_factor=1.5)

    def test_invalid_stop_threshold(self):
        with pytest.raises(ValueError):
            MatchConfig(stop_qgram_threshold=0)

    def test_negative_column_weight(self):
        with pytest.raises(ValueError):
            MatchConfig(column_weights=(1.0, -1.0))

    @pytest.mark.parametrize(
        "weights",
        [
            (),
            (float("nan"), 1.0, 1.0, 1.0),
            (float("inf"), 1.0, 1.0, 1.0),
            (1e308, 1e308, 1.0, 1.0),  # each finite, the sum overflows
        ],
    )
    def test_column_weights_that_break_every_query(self, weights):
        with pytest.raises(ValueError, match="column weights"):
            MatchConfig(column_weights=weights)

    def test_large_finite_column_weights_are_accepted(self):
        config = MatchConfig(column_weights=(1e300, 1.0))
        assert sum(config.normalized_column_weights(2)) == pytest.approx(2.0)

    @pytest.mark.parametrize("constant", [-0.1, float("nan"), float("-inf")])
    def test_invalid_transposition_constant(self, constant):
        # A negative swap cost would make fms's lower bounds unsound.
        with pytest.raises(ValueError, match="transposition_constant"):
            MatchConfig(transposition_constant=constant)
        assert MatchConfig(transposition_constant=0.0).transposition_constant == 0.0

    def test_frozen(self):
        config = MatchConfig()
        with pytest.raises(AttributeError):
            config.q = 5


class TestHelpers:
    def test_strategy_label(self):
        assert MatchConfig(signature_size=3, scheme=SignatureScheme.QGRAMS).strategy_label == "Q_3"
        assert MatchConfig(signature_size=2).strategy_label == "Q+T_2"

    def test_with_returns_modified_copy(self):
        base = MatchConfig()
        changed = base.with_(q=3, k=5)
        assert changed.q == 3 and changed.k == 5
        assert base.q == 4 and base.k == 1

    def test_normalized_column_weights_default(self):
        assert MatchConfig().normalized_column_weights(3) == (1.0, 1.0, 1.0)

    def test_normalized_column_weights_scaling(self):
        config = MatchConfig(column_weights=(2.0, 6.0))
        weights = config.normalized_column_weights(2)
        assert sum(weights) == pytest.approx(2.0)  # average 1
        assert weights[1] / weights[0] == pytest.approx(3.0)

    def test_normalized_column_weights_arity(self):
        config = MatchConfig(column_weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            config.normalized_column_weights(3)

    def test_transposition_cost_enum_values(self):
        assert TranspositionCost("avg") is TranspositionCost.AVERAGE
        assert TranspositionCost("const") is TranspositionCost.CONSTANT

    def test_scheme_enum_values(self):
        assert SignatureScheme("Q") is SignatureScheme.QGRAMS
        assert SignatureScheme("Q+T") is SignatureScheme.QGRAMS_PLUS_TOKEN
