"""Batch/parallel fuzzy-match execution: Figure 1's ETL loop at scale.

:class:`BatchMatcher` pushes a whole batch of dirty input tuples through
the matcher the way the paper's evaluation does (§6: batches against a
1.7M-tuple reference), with three throughput levers stacked on top of the
single-query algorithms:

1. **Deduplication** — identical tuples in one batch are matched once;
   duplicates get replicated results (dirty feeds repeat rows).
2. **A cross-query cache** — each worker's
   :class:`~repro.core.cache.MatcherCaches` amortizes reference fetches and
   tokenization across the whole batch (the PASS-JOIN/ApproxJoin
   preprocessing idea).
3. **A worker pool** — with ``jobs > 1`` the distinct queries fan out over
   a worker pool.  Each worker lazily builds its own
   :class:`~repro.core.matcher.FuzzyMatcher` (own ETI lookup counter, own
   reference-fetch counter, own caches) over the *shared read-only*
   stored relations, so per-query statistics never race.  The storage
   layer's buffer pool serializes page access internally.

The pool comes in two flavours, selected by ``executor``: ``"thread"``
(the GIL-bound historical behaviour — cheap workers, shared address
space, compatible with resilience policies and fault injectors) and
``"process"`` (true multicore: each worker process owns a private
interpreter and matcher; see :class:`WorkerSpec` for how workers obtain
the reference).  ``"auto"`` picks processes only when that is provably
safe *and* useful — ``jobs > 1``, no shared resilience policy, stock
reference/ETI classes, the ``fork`` start method available, and at least
two CPUs — and threads otherwise.

Results are always returned in input order and are bit-identical to the
sequential per-tuple :meth:`FuzzyMatcher.match` path: every query is
deterministic and independent, so execution order cannot change answers
— and the process pool ships back the same :class:`MatchResult` objects
(matches, per-query stats) the thread pool produces in place.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.analysis.debuglock import make_lock
from repro.core.cache import MatcherCaches
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
from repro.obs.registry import (
    MetricsRegistry,
    RegistrySnapshot,
    merge_snapshots,
)
from repro.db.database import Database
from repro.db.errors import DatabaseError
from repro.eti.builder import build_eti
from repro.eti.index import EtiIndex

#: Valid ``executor`` arguments.
EXECUTORS = ("auto", "thread", "process")


@dataclass(frozen=True)
class WorkerSpec:
    """Picklable recipe that rebuilds a worker matcher in a fresh process.

    Used only when worker processes cannot inherit the parent engine via
    ``fork`` (spawn/forkserver start methods).  The worker rebuilds an
    in-memory database from the serialized ``rows`` and — when the parent
    had an ETI — re-runs the deterministic, seeded ETI build, yielding an
    index bit-identical to the parent's by construction.  (Reopening the
    parent's database *file* instead is deliberately not offered: the
    storage engine keeps its catalog in the write-ahead-log manifest, so
    attaching from another process while the parent holds the file could
    not be done read-only; the rebuild is write-free and exact.)

    The weight function and min-hash family are pickled through as-is so
    worker similarities use exactly the parent's weights and signatures.
    """

    columns: tuple[str, ...]
    table: str
    build_index: bool
    config: MatchConfig
    weights: WeightFunction
    hasher: MinHasher
    rows: tuple[tuple[int, tuple[str | None, ...]], ...]
    fail_fast: bool

    def build(self) -> FuzzyMatcher:
        """Materialize the matcher inside the worker process."""
        db = Database.in_memory()
        reference = ReferenceTable(db, self.table, self.columns)
        reference.load(self.rows)
        eti = (
            build_eti(db, reference, self.config)[0] if self.build_index else None
        )
        return FuzzyMatcher(
            reference, self.weights, self.config, eti, self.hasher,
            caches=MatcherCaches(),
        )


# Per-process worker state.  ``_FORK_PARENT`` is set in the parent just
# before the pool is created so that fork-started workers inherit the
# live engine and can build their matcher from it without any pickling;
# ``_PROCESS_MATCHER``/``_PROCESS_FAIL_FAST`` are populated inside each
# worker by :func:`_process_worker_init`.
_FORK_PARENT: "BatchMatcher | None" = None
_PROCESS_MATCHER: FuzzyMatcher | None = None
_PROCESS_FAIL_FAST: bool = True


def _process_worker_init(spec: WorkerSpec | None) -> None:
    """Build this worker process's private matcher (pool initializer).

    ``spec=None`` is the fork fast path: the parent engine was inherited
    through :data:`_FORK_PARENT` at fork time (the storage layer reads
    pages with ``os.pread``, which is position-independent, so inherited
    on-disk databases are safe to read from many processes at once).
    Otherwise the picklable ``spec`` rebuilds everything from scratch.
    """
    global _PROCESS_MATCHER, _PROCESS_FAIL_FAST
    if spec is None:
        parent = _FORK_PARENT
        if parent is None:
            raise RuntimeError("fork worker started without an inherited engine")
        _PROCESS_MATCHER = parent._build_matcher()
        _PROCESS_FAIL_FAST = parent.fail_fast
    else:
        _PROCESS_MATCHER = spec.build()
        _PROCESS_FAIL_FAST = spec.fail_fast


def _process_run_query(
    task: tuple[Sequence[str | None], int | None, float | None, str | None],
) -> MatchResult:
    """Run one query in a worker process and marshal the result back.

    The returned :class:`MatchResult` (matches, stats) pickles
    back to the parent whole, so process-mode reports and per-query
    statistics look exactly like thread-mode ones.  ``fail_fast`` is
    honoured worker-side the same way the thread path does it: the error
    becomes the item's ``result.error`` marker, or re-raises to abort
    the whole batch.
    """
    matcher = _PROCESS_MATCHER
    if matcher is None:
        raise RuntimeError("worker process used before initialization")
    values, k, min_similarity, strategy = task
    try:
        return matcher.match(
            values, k=k, min_similarity=min_similarity, strategy=strategy
        )
    except DatabaseError as exc:
        if _PROCESS_FAIL_FAST:
            raise
        return failed_result(exc, strategy or "")


@dataclass
class BatchReport:
    """Accounting for one :meth:`BatchMatcher.match_many` run.

    ``executor`` records which pool flavour actually ran the batch
    (``"thread"`` or ``"process"`` — the resolved value, never
    ``"auto"``).  In process mode ``cache_counters`` covers only the
    parent-side sequential matcher: worker caches live in other
    processes and are not aggregated (per-query :class:`MatchStats`
    still ride along on every result).

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
    executor: str = "thread"
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
            "executor": self.executor,
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
        caching); ``N > 1`` fans distinct queries out over ``N`` workers.
    executor:
        ``"thread"`` (default), ``"process"``, or ``"auto"``.  Threads
        share the address space — required whenever workers must share a
        resilience policy, fault injectors, or subclassed components —
        but serialize CPU-bound verification on the GIL.  Processes give
        true multicore speedup; workers are initialized fork/spawn-safely
        (inherit the engine on ``fork``, rebuild from a
        :class:`WorkerSpec` otherwise) and results marshal back intact.
        ``"auto"`` resolves to processes only when that is safe and the
        machine has more than one CPU; it never breaks shared-state
        setups, it only declines to parallelize them across processes.
    cache_factory:
        Zero-argument callable building the :class:`MatcherCaches` bundle
        for each worker (and the sequential matcher).  Defaults to
        :class:`MatcherCaches` with default capacities; pass
        ``MatcherCaches.disabled`` to benchmark the uncached path.
    resilience:
        Optional :class:`~repro.core.resilience.ResiliencePolicy`, shared
        by every worker — the circuit breaker sees the whole fleet's ETI
        failures, and each query runs under the policy's budget.
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
        cache_factory: Callable[[], MatcherCaches] = MatcherCaches,
        resilience: ResiliencePolicy | None = None,
        fail_fast: bool = True,
        executor: str = "thread",
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        self.resilience = resilience
        self.fail_fast = fail_fast
        self.reference = reference
        self.weights = weights
        self.config = config if config is not None else MatchConfig()
        self.eti = eti
        self.hasher = (
            hasher
            if hasher is not None
            else MinHasher(self.config.q, self.config.signature_size, self.config.seed)
        )
        self.jobs = jobs
        self.cache_factory = cache_factory
        self.executor = self._resolve_executor(executor)
        self._local = threading.local()
        self._workers: list[FuzzyMatcher] = []
        self._workers_lock = make_lock("BatchMatcher._workers_lock")
        self._sequential = self._build_matcher()
        self._pool: Executor | None = None
        self.last_report = BatchReport(jobs=jobs, executor=self.executor)

    @classmethod
    def from_matcher(
        cls,
        matcher: FuzzyMatcher,
        jobs: int = 1,
        cache_factory: Callable[[], MatcherCaches] = MatcherCaches,
        resilience: ResiliencePolicy | None = None,
        fail_fast: bool = True,
        executor: str = "thread",
    ) -> "BatchMatcher":
        """Wrap an existing matcher's components in a batch engine."""
        return cls(
            matcher.reference,
            matcher.weights,
            matcher.config,
            matcher.eti,
            matcher.hasher,
            jobs=jobs,
            cache_factory=cache_factory,
            resilience=resilience if resilience is not None else matcher.resilience,
            fail_fast=fail_fast,
            executor=executor,
        )

    # ------------------------------------------------------------------
    # Worker construction
    # ------------------------------------------------------------------

    def _resolve_executor(self, requested: str) -> str:
        """Turn the requested executor into a concrete ``thread``/``process``.

        Explicit ``"process"`` is validated, not second-guessed: a shared
        resilience policy cannot work across address spaces (each worker
        would get a private circuit breaker, silently voiding the
        contract), so that combination raises instead of degrading.

        ``"auto"`` is conservative: processes only with ``jobs > 1``, no
        resilience policy, *stock* reference/ETI classes (subclasses are
        how tests inject faults and how callers share in-process state —
        both break across a process boundary), a usable ``fork`` start
        method, and more than one CPU (on a single core the fork and IPC
        overhead cannot pay for itself).
        """
        if requested == "thread":
            return "thread"
        if requested == "process":
            if self.resilience is not None:
                raise ValueError(
                    "executor='process' cannot share a resilience policy "
                    "across worker processes; use executor='thread'"
                )
            return "process"
        if (
            self.jobs > 1
            and self.resilience is None
            and type(self.reference) is ReferenceTable
            and (self.eti is None or type(self.eti) is EtiIndex)
            and "fork" in multiprocessing.get_all_start_methods()
            and (os.cpu_count() or 1) > 1
        ):
            return "process"
        return "thread"

    def _build_matcher(self) -> FuzzyMatcher:
        """One matcher over the shared relations with private counters."""
        eti_view = EtiIndex(self.eti.relation) if self.eti is not None else None
        reference_view = self.reference.view()
        return FuzzyMatcher(
            reference_view,
            self.weights,
            self.config,
            eti_view,
            self.hasher,
            caches=self.cache_factory(),
            resilience=self.resilience,
        )

    def worker_matcher(self) -> FuzzyMatcher:
        """This thread's matcher over the shared relations (built lazily).

        One matcher per calling thread, cached for the engine's lifetime:
        private per-query counters and caches, shared read-only reference
        + ETI, shared resilience policy.  The batch path uses this for
        its pool workers, and the serving layer
        (:class:`repro.serve.server.MatchServer`) reuses it so server
        workers get exactly the batch engine's worker semantics — warm
        caches across requests, one breaker for the whole fleet — instead
        of a second pool implementation.
        """
        matcher = getattr(self._local, "matcher", None)
        if matcher is None:
            matcher = self._build_matcher()
            self._local.matcher = matcher
            with self._workers_lock:
                self._workers.append(matcher)
        return matcher

    def _worker_spec(self) -> WorkerSpec | None:
        """Picklable rebuild recipe for non-fork worker processes.

        Fork-started pools pass ``None`` (workers inherit the engine);
        spawn/forkserver pools get the full spec, which serializes the
        reference rows for a deterministic in-memory rebuild.
        """
        if "fork" in multiprocessing.get_all_start_methods():
            return None
        return WorkerSpec(
            columns=self.reference.column_names,
            table=self.reference.name,
            build_index=self.eti is not None,
            config=self.config,
            weights=self.weights,
            hasher=self.hasher,
            rows=tuple(self.reference.scan()),
            fail_fast=self.fail_fast,
        )

    def _ensure_pool(self) -> Executor:
        """The persistent worker pool (so worker caches stay warm across
        batches)."""
        global _FORK_PARENT
        if self._pool is None:
            if self.executor == "process":
                spec = self._worker_spec()
                if spec is None:
                    # Fork fast path: workers build from the engine they
                    # inherit at fork time.  Worker processes spawn lazily
                    # on first submit, so the global stays set for the
                    # pool's lifetime.
                    _FORK_PARENT = self
                    context = multiprocessing.get_context("fork")
                else:
                    context = multiprocessing.get_context()
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=context,
                    initializer=_process_worker_init,
                    initargs=(spec,),
                )
            else:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.jobs, thread_name_prefix="repro-batch"
                )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        global _FORK_PARENT
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if _FORK_PARENT is self:
            _FORK_PARENT = None

    def __enter__(self) -> "BatchMatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def warm_shared_state(
        self,
        sample: Sequence[str | None] | None = None,
        k: int | None = None,
        min_similarity: float | None = None,
        strategy: str | None = None,
    ) -> None:
        """Force lazily-built shared structures before threads fan out.

        The weight provider computes column averages on the first unseen
        token and the min-hash family memoizes signatures; doing one
        throwaway query here keeps those one-time mutations
        single-threaded.  Query errors (bad arity, missing ETI, storage
        faults) are left for the real execution to raise or isolate.
        """
        for column in range(self.reference.num_columns):
            self.weights.weight("", column)
        if sample is not None:
            try:
                self._sequential.match(
                    sample, k=k, min_similarity=min_similarity, strategy=strategy
                )
            except (ValueError, DatabaseError):
                pass

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
            results = self._sequential.match_many(
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

        self.warm_shared_state(
            unique_inputs[0] if unique_inputs else None, k, min_similarity, strategy
        )

        if self.executor == "process":
            global _FORK_PARENT
            if "fork" in multiprocessing.get_all_start_methods():
                # Re-point the inherited-engine global at this engine so
                # any worker forked during this batch builds from it.
                _FORK_PARENT = self
            tasks = [
                (values, k, min_similarity, strategy) for values in unique_inputs
            ]
            chunksize = max(1, len(tasks) // (self.jobs * 4))
            unique_results = list(
                self._ensure_pool().map(
                    _process_run_query, tasks, chunksize=chunksize
                )
            )
        else:

            def run_query(values: Sequence[str | None]) -> MatchResult:
                try:
                    return self.worker_matcher().match(
                        values,
                        k=k,
                        min_similarity=min_similarity,
                        strategy=strategy,
                    )
                except DatabaseError as exc:
                    if self.fail_fast:
                        raise
                    return failed_result(exc, strategy or "")

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
            executor=self.executor,
            elapsed_seconds=time.perf_counter() - started,
            cache_counters=self.cache_counters(),
            degraded_queries=sum(1 for r in results if r is not None and r.stats.degraded),
            failed_queries=sum(1 for r in results if r is not None and r.failed),
            degraded_reasons=degraded_reasons,
            failed_types=failed_types,
        )

    def cache_counters(self) -> dict:
        """Fleet hit/miss/eviction totals per cache, from the merged registries."""
        total: dict[str, dict[str, int]] = {}
        for (name, labels), value in self.metrics_snapshot().counters.items():
            if name.startswith("repro_cache_"):
                bucket = total.setdefault(
                    dict(labels).get("cache", ""),
                    {"hits": 0, "misses": 0, "evictions": 0},
                )
                bucket[name.removeprefix("repro_cache_").removesuffix("_total")] = value
        for bucket in total.values():
            lookups = bucket["hits"] + bucket["misses"]
            bucket["hit_rate"] = bucket["hits"] / lookups if lookups else 0.0
        return total

    def registries(self) -> list[MetricsRegistry]:
        """Every matcher's metrics registry built so far (dedup'd).

        One registry per cache bundle; matchers sharing a bundle (the
        ``cache_factory=lambda: shared`` pattern) contribute it once.
        """
        with self._workers_lock:
            matchers = [self._sequential, *self._workers]
        registries: list[MetricsRegistry] = []
        for matcher in matchers:
            registry = matcher.caches.registry
            if not any(registry is seen for seen in registries):
                registries.append(registry)
        return registries

    def metrics_snapshot(self) -> RegistrySnapshot:
        """Fleet totals: every per-matcher registry snapshot, merged."""
        return merge_snapshots(
            registry.snapshot() for registry in self.registries()
        )

    def set_metrics_enabled(self, enabled: bool) -> None:
        """Toggle metric recording on every matcher registry at runtime.

        Matchers built *after* the call get fresh (enabled) registries;
        the serve layer re-applies the flag per worker matcher, which is
        the only place matchers are created post-start.
        """
        for registry in self.registries():
            registry.set_enabled(enabled)
