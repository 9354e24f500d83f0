"""Batch/parallel fuzzy-match execution: Figure 1's ETL loop at scale.

:class:`BatchMatcher` pushes a whole batch of dirty input tuples through
the matcher the way the paper's evaluation does (§6: batches against a
1.7M-tuple reference), with three throughput levers stacked on top of the
single-query algorithms:

1. **Deduplication** — identical tuples in one batch are matched once;
   duplicates get replicated results (dirty feeds repeat rows).
2. **A cross-query cache** — the engine's one
   :class:`~repro.core.cache.MatcherCaches` amortizes reference fetches and
   tokenization across every batch and every worker (the PASS-JOIN /
   ApproxJoin preprocessing idea: pay per reference tuple once).
3. **A worker pool** — with ``jobs > 1`` the distinct queries fan out over
   a thread pool.  Every worker runs the engine's one
   :class:`~repro.core.matcher.FuzzyMatcher`: each query counts its own
   statistics into its own :class:`~repro.core.matcher.MatchStats`, so
   nothing per-query is shared.  The storage layer's buffer pool
   serializes page access internally.

The pool is a thread pool: workers share one address space, so they
share the matcher, its cache and registry, a resilience policy (one
circuit breaker for the fleet) and any fault injector under the storage
layer.

Results are always returned in input order and are bit-identical to the
sequential per-tuple :meth:`FuzzyMatcher.match` path: every query is
deterministic and independent, so execution order cannot change answers.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.config import MatchConfig
from repro.core.matcher import (
    FuzzyMatcher,
    MatchResult,
    failed_result,
    group_duplicates,
    replicate_result,
)
from repro.core.minhash import MinHasher
from repro.core.reference import ReferenceTable
from repro.core.resilience import ResiliencePolicy
from repro.core.weights import WeightFunction
from repro.obs.registry import RegistrySnapshot
from repro.db.errors import DatabaseError
from repro.eti.index import EtiIndex


@dataclass
class BatchReport:
    """Accounting for one :meth:`BatchMatcher.match_many` run.

    ``degraded_reasons`` and ``failed_types`` break the two outcome
    counters down by *why*: reason string (``"deadline"``,
    ``"fallback:TransientIOError"``, …) → count and error class name →
    count.  They survive :meth:`to_json`, so a ``fail_fast=False`` batch
    run reports the same per-item degradation fields a server response
    carries — not just the totals.
    """

    total_queries: int = 0
    unique_queries: int = 0
    jobs: int = 1
    elapsed_seconds: float = 0.0
    cache_counters: dict = field(default_factory=dict)
    degraded_queries: int = 0
    failed_queries: int = 0
    degraded_reasons: dict[str, int] = field(default_factory=dict)
    failed_types: dict[str, int] = field(default_factory=dict)

    @property
    def deduplicated_queries(self) -> int:
        return self.total_queries - self.unique_queries

    @property
    def queries_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.total_queries / self.elapsed_seconds

    def as_dict(self) -> dict:
        """The report as plain data, derived properties included."""
        return {
            "total_queries": self.total_queries,
            "unique_queries": self.unique_queries,
            "deduplicated_queries": self.deduplicated_queries,
            "jobs": self.jobs,
            "elapsed_seconds": self.elapsed_seconds,
            "queries_per_second": self.queries_per_second,
            "degraded_queries": self.degraded_queries,
            "failed_queries": self.failed_queries,
            "degraded_reasons": dict(sorted(self.degraded_reasons.items())),
            "failed_types": dict(sorted(self.failed_types.items())),
            "cache_counters": self.cache_counters,
        }

    def to_json(self, indent: int | None = None) -> str:
        """JSON form of :meth:`as_dict` (keys in a stable order)."""
        return json.dumps(self.as_dict(), indent=indent)


class BatchMatcher:
    """Parallel batch execution over one reference relation and ETI.

    Parameters mirror :class:`FuzzyMatcher`, plus:

    jobs:
        Worker count.  ``1`` runs sequentially (still deduplicating and
        caching); ``N > 1`` fans distinct queries out over ``N`` worker
        threads.  Either way the engine holds exactly one matcher, one
        cache bundle and one metrics registry.
    resilience:
        Optional :class:`~repro.core.resilience.ResiliencePolicy`, shared
        by every worker — the circuit breaker sees the whole fleet's ETI
        failures, and each query runs under the policy's limits.
    fail_fast:
        With the default ``True``, a :class:`DatabaseError` on any tuple
        aborts the batch (the pre-resilience behaviour).  With ``False``
        the failure is isolated into that tuple's result
        (``result.error`` set) and the rest of the batch completes.
    """

    def __init__(
        self,
        reference: ReferenceTable,
        weights: WeightFunction,
        config: MatchConfig | None = None,
        eti: EtiIndex | None = None,
        hasher: MinHasher | None = None,
        jobs: int = 1,
        resilience: ResiliencePolicy | None = None,
        fail_fast: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.fail_fast = fail_fast
        self.jobs = jobs
        self._matcher = FuzzyMatcher(
            reference, weights, config, eti, hasher, resilience=resilience
        )
        self.reference = reference
        self.weights = weights
        self.config = self._matcher.config
        self._pool: ThreadPoolExecutor | None = None
        self.last_report = BatchReport(jobs=jobs)

    @classmethod
    def from_matcher(
        cls,
        matcher: FuzzyMatcher,
        jobs: int = 1,
        resilience: ResiliencePolicy | None = None,
        fail_fast: bool = True,
        executor: str = "thread",
    ) -> "BatchMatcher":
        """Wrap an existing matcher's components in a batch engine.

        ``executor`` must be ``"thread"``, the only worker pool; any other
        value raises :class:`ValueError`.
        """
        if executor != "thread":
            raise ValueError(f"executor must be 'thread', got {executor!r}")
        return cls(
            matcher.reference,
            matcher.weights,
            matcher.config,
            matcher.eti,
            matcher.hasher,
            jobs=jobs,
            resilience=resilience if resilience is not None else matcher.resilience,
            fail_fast=fail_fast,
        )

    def worker_matcher(self) -> FuzzyMatcher:
        """The engine's one matcher, the same object for every thread.

        Shared read-only reference + ETI, one cross-query cache, one
        metrics registry, one resilience policy.  The batch pool runs its
        queries through it, and the serving layer
        (:class:`repro.serve.server.MatchServer`) hands it to every server
        worker, so the fleet warms one cache and reports one set of
        counters.
        """
        return self._matcher

    def _ensure_pool(self) -> ThreadPoolExecutor:
        """The persistent worker pool (threads are reused across batches)."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="repro-batch"
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "BatchMatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def warm_shared_state(self) -> None:
        """Force lazily-built shared structures before threads fan out.

        The weight provider computes its column averages on the first
        unseen token; doing that here keeps the one-time mutation
        single-threaded.
        """
        for column in range(self.reference.num_columns):
            self.weights.weight("", column)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def match_many(
        self,
        batch: Iterable[Sequence[str | None]],
        k: int | None = None,
        min_similarity: float | None = None,
        strategy: str | None = None,
    ) -> list[MatchResult]:
        """Match a batch of input tuples; results in input order.

        Semantically identical to ``[matcher.match(v, ...) for v in
        batch]`` — same matches, same similarities — with dedup, caching,
        and (``jobs > 1``) parallel execution underneath.  A
        :class:`BatchReport` for the run is left in :attr:`last_report`.

        With ``fail_fast=False`` (constructor flag) one query's
        :class:`DatabaseError` becomes that item's ``result.error`` marker
        instead of killing the batch; the report counts failed and
        degraded items.
        """
        batch = list(batch)
        started = time.perf_counter()
        if self.jobs == 1 or len(batch) <= 1:
            results = self._matcher.match_many(
                batch,
                k=k,
                min_similarity=min_similarity,
                strategy=strategy,
                fail_fast=self.fail_fast,
            )
            unique = sum(1 for r in results if not r.stats.deduplicated)
            self._finish_report(len(batch), unique, started, results)
            return results

        groups, keys = group_duplicates(batch)
        unique_inputs = [
            batch[indices[0]] for indices in groups.values()
        ] + [batch[i] for i, key in enumerate(keys) if key is None]

        def run_query(values: Sequence[str | None]) -> MatchResult:
            try:
                return self._matcher.match(
                    values,
                    k=k,
                    min_similarity=min_similarity,
                    strategy=strategy,
                )
            except DatabaseError as exc:
                if self.fail_fast:
                    raise
                return failed_result(exc, strategy or "")

        self.warm_shared_state()
        unique_results = list(self._ensure_pool().map(run_query, unique_inputs))

        results: list[MatchResult | None] = [None] * len(batch)
        for group_index, indices in enumerate(groups.values()):
            first, *rest = indices
            results[first] = unique_results[group_index]
            for index in rest:
                results[index] = replicate_result(unique_results[group_index])
        extras = iter(unique_results[len(groups):])
        for index, key in enumerate(keys):
            if key is None:
                results[index] = next(extras)
        self._finish_report(len(batch), len(unique_inputs), started, results)
        return results

    def _finish_report(
        self,
        total: int,
        unique: int,
        started: float,
        results: Sequence[MatchResult | None] = (),
    ) -> None:
        degraded_reasons: dict[str, int] = {}
        failed_types: dict[str, int] = {}
        for result in results:
            if result is None:
                continue
            if result.stats.degraded:
                reason = result.stats.degraded_reason or "unknown"
                degraded_reasons[reason] = degraded_reasons.get(reason, 0) + 1
            if result.failed:
                error_type = result.error_type or "DatabaseError"
                failed_types[error_type] = failed_types.get(error_type, 0) + 1
        self.last_report = BatchReport(
            total_queries=total,
            unique_queries=unique,
            jobs=self.jobs,
            elapsed_seconds=time.perf_counter() - started,
            cache_counters=self.cache_counters(),
            degraded_queries=sum(1 for r in results if r is not None and r.stats.degraded),
            failed_queries=sum(1 for r in results if r is not None and r.failed),
            degraded_reasons=degraded_reasons,
            failed_types=failed_types,
        )

    def cache_counters(self) -> dict:
        """Hit/miss/eviction totals, hit rate and entries, by cache name."""
        return self._matcher.caches.counters()

    def metrics_snapshot(self) -> RegistrySnapshot:
        """The engine registry's snapshot: cache and per-query counters."""
        return self._matcher.caches.registry.snapshot()

    def set_metrics_enabled(self, enabled: bool) -> None:
        """Toggle metric recording on the engine registry at runtime."""
        self._matcher.caches.registry.set_enabled(enabled)
