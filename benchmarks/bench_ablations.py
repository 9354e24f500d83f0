"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper — these isolate the contribution of individual
mechanisms the paper combines:

- OSC on/off at a fixed signature (what §4.3.2 buys);
- IDF weights vs unit weights inside fms (what §3's weighting buys);
- the token insertion factor c_ins;
- the stop-q-gram threshold.
"""

from benchmarks.conftest import record
from repro.core.config import SignatureScheme
from repro.core.matcher import FuzzyMatcher
from repro.core.minhash import MinHasher
from repro.eti.builder import build_eti
from repro.eval.figures import FigureResult
from repro.eval.metrics import accuracy, mean


class UnitWeights:
    """Flat weights: disables the IDF idea while keeping everything else."""

    def weight(self, token, column):
        return 1.0

    def frequency(self, token, column):
        return 1


def run_dataset(matcher, dataset, strategy=None):
    predictions = []
    fetched = []
    osc_successes = 0
    for dirty in dataset.inputs:
        result = matcher.match(dirty.values, strategy=strategy)
        best = result.best
        predictions.append((best.tid if best else None, dirty.target_tid))
        fetched.append(result.stats.candidates_fetched)
        osc_successes += result.stats.osc_succeeded
    return {
        "accuracy": accuracy(predictions),
        "avg_fetched": mean(fetched),
        "osc_fraction": osc_successes / max(len(dataset.inputs), 1),
    }


def test_osc_on_off(benchmark, workbench):
    """OSC should cut candidate fetches without hurting accuracy much."""
    config = workbench.config_for(SignatureScheme.QGRAMS_PLUS_TOKEN, 2)
    matcher = workbench.matcher_for(config)
    dataset = workbench.datasets["D2"]

    def run():
        return (
            run_dataset(matcher, dataset, strategy="basic"),
            run_dataset(matcher, dataset, strategy="osc"),
        )

    basic, osc = benchmark.pedantic(run, rounds=1, iterations=1)
    result = FigureResult(
        "Ablation: OSC on/off (D2, Q+T_2)",
        ("variant", "accuracy", "avg_fetched"),
        [
            ("basic (no OSC)", basic["accuracy"], basic["avg_fetched"]),
            ("OSC", osc["accuracy"], osc["avg_fetched"]),
        ],
    )
    record(result)
    assert osc["avg_fetched"] <= basic["avg_fetched"]
    assert osc["accuracy"] >= basic["accuracy"] - 0.05


def test_idf_vs_unit_weights(benchmark, workbench):
    """§3's claim: IDF weighting is what makes fms robust.

    Evaluated under *Type II* errors — the regime the weighting idea
    targets: errors concentrate in frequent (low-IDF) tokens, which unit
    weights penalize as hard as the informative ones.
    """
    from repro.data.datasets import DatasetSpec, ED_VS_FMS_PROBABILITIES

    config = workbench.config_for(SignatureScheme.QGRAMS_PLUS_TOKEN, 2)
    handle = workbench.eti_for(config)
    spec = DatasetSpec("idf-ablation", ED_VS_FMS_PROBABILITIES, method="type2")
    dataset = workbench.custom_dataset(spec)
    idf_matcher = workbench.matcher_for(config)
    unit_matcher = FuzzyMatcher(
        workbench.reference, UnitWeights(), config, handle.index
    )

    def run():
        return (
            run_dataset(idf_matcher, dataset),
            run_dataset(unit_matcher, dataset),
        )

    idf, unit = benchmark.pedantic(run, rounds=1, iterations=1)
    result = FigureResult(
        "Ablation: IDF vs unit token weights (Type II errors, Q+T_2)",
        ("variant", "accuracy"),
        [("IDF weights", idf["accuracy"]), ("unit weights", unit["accuracy"])],
    )
    record(result)
    assert idf["accuracy"] >= unit["accuracy"] - 0.02


def test_cins_sweep(benchmark, workbench):
    """Sensitivity to the token insertion factor."""
    dataset = workbench.datasets["D2"]
    base = workbench.config_for(SignatureScheme.QGRAMS_PLUS_TOKEN, 2)
    handle = workbench.eti_for(base)

    def run():
        rows = []
        for cins in (0.0, 0.25, 0.5, 0.75, 1.0):
            config = base.with_(token_insertion_factor=cins)
            matcher = FuzzyMatcher(
                workbench.reference, workbench.weights, config, handle.index
            )
            stats = run_dataset(matcher, dataset)
            rows.append((f"c_ins={cins}", stats["accuracy"]))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record(FigureResult("Ablation: token insertion factor (D2)", ("variant", "accuracy"), rows))
    accuracies = [accuracy for _, accuracy in rows]
    assert max(accuracies) - min(accuracies) < 0.25  # robust, not knife-edge


def test_similarity_threshold_operating_curve(benchmark, workbench):
    """The Figure 1 decision knob: the load threshold c.

    Sweeping the minimum similarity shows the operating curve an ETL
    deployment tunes: higher c loads fewer records automatically but with
    higher precision; the remainder routes to manual cleaning.
    """
    config = workbench.config_for(SignatureScheme.QGRAMS_PLUS_TOKEN, 2)
    matcher = workbench.matcher_for(config)
    dataset = workbench.datasets["D2"]

    def run():
        rows = []
        for threshold in (0.0, 0.3, 0.5, 0.7, 0.9):
            matched = correct = 0
            for dirty in dataset.inputs:
                result = matcher.match(dirty.values, min_similarity=threshold)
                if result.best is None:
                    continue
                matched += 1
                correct += result.best.tid == dirty.target_tid
            coverage = matched / len(dataset.inputs)
            precision = correct / matched if matched else 1.0
            rows.append((f"c={threshold}", coverage, precision))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        FigureResult(
            "Ablation: load-threshold operating curve (D2, Q+T_2)",
            ("variant", "coverage", "precision"),
            rows,
        )
    )
    coverages = [row[1] for row in rows]
    precisions = [row[2] for row in rows]
    assert coverages == sorted(coverages, reverse=True), "coverage falls with c"
    assert precisions[-1] >= precisions[0] - 0.01, "precision rises (or holds) with c"


def test_stop_qgram_threshold(benchmark, workbench):
    """Aggressive stop-q-gram thresholds trade accuracy for smaller lists."""
    dataset = workbench.datasets["D2"]

    def run():
        rows = []
        for threshold in (5, 50, 10_000):
            config = workbench.config_for(SignatureScheme.QGRAMS_PLUS_TOKEN, 2).with_(
                stop_qgram_threshold=threshold
            )
            hasher = MinHasher(config.q, config.signature_size, config.seed)
            eti, build_stats = build_eti(
                workbench.db,
                workbench.reference,
                config,
                hasher=hasher,
                eti_name=f"eti_stop_{threshold}",
            )
            matcher = FuzzyMatcher(
                workbench.reference, workbench.weights, config, eti, hasher
            )
            stats = run_dataset(matcher, dataset)
            rows.append(
                (f"threshold={threshold}", stats["accuracy"], build_stats.stop_qgrams)
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        FigureResult(
            "Ablation: stop q-gram threshold (D2, Q+T_2)",
            ("variant", "accuracy", "stop_qgrams"),
            rows,
        )
    )
    by_threshold = {row[0]: row for row in rows}
    assert by_threshold["threshold=5"][2] > by_threshold["threshold=10000"][2]
    # The paper-default (effectively unlimited here) should be at least as
    # accurate as the aggressive setting.
    assert by_threshold["threshold=10000"][1] >= by_threshold["threshold=5"][1] - 0.02
