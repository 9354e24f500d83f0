"""The experiment workbench.

One :class:`Workbench` owns a synthetic Customer reference relation, its
token-frequency cache, the D1/D2/D3 dirty datasets, and lazily-built ETIs
(one per signature strategy).  Experiment drivers ask it to run query
batches and get back :class:`RunStats` aggregates, from which every paper
figure is sliced.

Scale note: the paper runs 1.7M reference tuples and 1655 inputs per
dataset on SQL Server; the workbench defaults to laptop-scale (see
DESIGN.md §7) and everything is a constructor knob.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.config import MatchConfig, SignatureScheme
from repro.core.matcher import FuzzyMatcher
from repro.core.reference import ReferenceTable
from repro.core.weights import TokenFrequencyCache, build_frequency_cache
from repro.data.datasets import Dataset, DatasetSpec, make_dataset
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.eti.builder import BuildStats, build_eti
from repro.eval.metrics import accuracy, mean

# The seven strategies of §6.2, in the figures' display order.
PAPER_STRATEGIES: tuple[tuple[SignatureScheme, int], ...] = (
    (SignatureScheme.QGRAMS_PLUS_TOKEN, 0),
    (SignatureScheme.QGRAMS, 1),
    (SignatureScheme.QGRAMS_PLUS_TOKEN, 1),
    (SignatureScheme.QGRAMS, 2),
    (SignatureScheme.QGRAMS_PLUS_TOKEN, 2),
    (SignatureScheme.QGRAMS, 3),
    (SignatureScheme.QGRAMS_PLUS_TOKEN, 3),
)


@dataclass
class RunStats:
    """Aggregate statistics of one (strategy, dataset) query batch."""

    strategy: str = ""
    dataset: str = ""
    queries: int = 0
    accuracy: float = 0.0
    elapsed_seconds: float = 0.0
    avg_eti_lookups: float = 0.0
    avg_tids_processed: float = 0.0
    avg_candidates_fetched: float = 0.0
    osc_success_fraction: float = 0.0
    avg_fetched_osc_success: float = 0.0
    avg_fetched_osc_failure: float = 0.0


@dataclass
class EtiHandle:
    """A built ETI plus its build statistics."""

    index: object
    build_stats: BuildStats
    config: MatchConfig


class Workbench:
    """Reference relation + caches + datasets + per-strategy ETIs."""

    def __init__(
        self,
        num_reference: int = 5000,
        num_inputs: int = 200,
        seed: int = 42,
        base_config: MatchConfig | None = None,
        dataset_names: tuple[str, ...] = ("D1", "D2", "D3"),
        business_fraction: float = 0.4,
    ) -> None:
        self.seed = seed
        self.num_inputs = num_inputs
        self.base_config = base_config if base_config is not None else MatchConfig()
        self.db = Database.in_memory()
        self.reference = ReferenceTable(self.db, "customer", list(CUSTOMER_COLUMNS))

        customers = generate_customers(
            num_reference, seed=seed, business_fraction=business_fraction, unique=True
        )
        self.reference.load((c.tid, c.values) for c in customers)
        self._reference_tuples = [(c.tid, c.values) for c in customers]

        self.weights: TokenFrequencyCache = build_frequency_cache(
            self.reference.scan_values(), self.reference.num_columns
        )

        self.datasets: dict[str, Dataset] = {}
        for name in dataset_names:
            spec = DatasetSpec.preset(name)
            # Stable per-dataset seed offset (builtin str hash is salted
            # per process, which would break reproducibility).
            offset = sum(ord(ch) for ch in name)
            self.datasets[name] = make_dataset(
                self._reference_tuples, spec, num_inputs, seed=seed + offset
            )

        self._etis: dict[str, EtiHandle] = {}
        self._naive_unit: float | None = None

    # ------------------------------------------------------------------
    # Configuration / construction
    # ------------------------------------------------------------------

    def config_for(self, scheme: SignatureScheme, signature_size: int) -> MatchConfig:
        """The base config with the given signature strategy."""
        return self.base_config.with_(scheme=scheme, signature_size=signature_size)

    def eti_for(self, config: MatchConfig) -> EtiHandle:
        """Build (or reuse) the ETI for ``config``'s signature strategy."""
        label = config.strategy_label
        handle = self._etis.get(label)
        if handle is None:
            index, stats = build_eti(
                self.db, self.reference, config, eti_name=f"eti_{label.replace('+', 'p')}"
            )
            handle = EtiHandle(index=index, build_stats=stats, config=config)
            self._etis[label] = handle
        return handle

    def matcher_for(self, config: MatchConfig) -> FuzzyMatcher:
        """A matcher wired to the (possibly cached) ETI for ``config``."""
        return FuzzyMatcher(self.reference, self.weights, config, self.eti_for(config).index)

    def custom_dataset(self, spec: DatasetSpec, count: int | None = None, seed_offset: int = 0) -> Dataset:
        """Build an extra dataset (e.g. Type II) against this reference."""
        frequency_lookup = (
            self.weights.frequency if spec.method == "type2" else None
        )
        return make_dataset(
            self._reference_tuples,
            spec,
            count if count is not None else self.num_inputs,
            seed=self.seed + 17 + seed_offset,
            frequency_lookup=frequency_lookup,
        )

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def naive_unit_time(self, sample_size: int = 3) -> float:
        """Seconds the naive algorithm needs for one input tuple (averaged).

        This is the normalization unit of the paper's elapsed-time metric.
        Measured once and cached.
        """
        if self._naive_unit is None:
            dataset = next(iter(self.datasets.values()))
            matcher = FuzzyMatcher(self.reference, self.weights, self.base_config)
            sample = dataset.inputs[:sample_size]
            started = time.perf_counter()
            for dirty in sample:
                matcher.match(dirty.values, strategy="naive")
            self._naive_unit = (time.perf_counter() - started) / max(len(sample), 1)
        return self._naive_unit

    def run_batch(
        self,
        config: MatchConfig,
        dataset_name: str,
        strategy: str | None = None,
        dataset: Dataset | None = None,
    ) -> RunStats:
        """Run one dataset through one strategy; aggregate the statistics."""
        if dataset is None:
            dataset = self.datasets[dataset_name]
        matcher = self.matcher_for(config)
        stats = RunStats(strategy=config.strategy_label, dataset=dataset_name)
        predictions: list[tuple[int | None, int]] = []
        lookups: list[float] = []
        tids: list[float] = []
        fetched_success: list[float] = []
        fetched_failure: list[float] = []
        osc_successes = 0
        started = time.perf_counter()
        for dirty in dataset.inputs:
            result = matcher.match(dirty.values, strategy=strategy)
            best = result.best
            predictions.append((best.tid if best else None, dirty.target_tid))
            lookups.append(result.stats.eti_lookups)
            tids.append(result.stats.tids_processed)
            if result.stats.osc_succeeded:
                osc_successes += 1
                fetched_success.append(result.stats.candidates_fetched)
            else:
                fetched_failure.append(result.stats.candidates_fetched)
        stats.elapsed_seconds = time.perf_counter() - started
        stats.queries = len(dataset.inputs)
        stats.accuracy = accuracy(predictions)
        stats.avg_eti_lookups = mean(lookups)
        stats.avg_tids_processed = mean(tids)
        stats.avg_candidates_fetched = mean(fetched_success + fetched_failure)
        stats.osc_success_fraction = (
            osc_successes / stats.queries if stats.queries else 0.0
        )
        stats.avg_fetched_osc_success = mean(fetched_success)
        stats.avg_fetched_osc_failure = mean(fetched_failure)
        return stats

    def close(self) -> None:
        """Release the underlying database."""
        self.db.close()
