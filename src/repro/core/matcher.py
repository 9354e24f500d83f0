"""The K-fuzzy-match algorithms (§4.3).

:class:`FuzzyMatcher` answers fuzzy match queries against a reference
relation three ways:

- ``naive``: scan the whole reference relation computing exact fms — the
  baseline both accuracy and "normalized elapsed time" are defined against.
- ``basic``: Figure 3.  Tokenize, weight, compute min-hash signatures, look
  up every signature q-gram in the ETI, accumulate tid scores, then fetch
  and verify candidates with exact fms.
- ``osc``: the basic algorithm plus optimistic short circuiting (Figure 4):
  q-grams are processed in decreasing weight order and the algorithm stops
  early as soon as the current top-K provably cannot be displaced.

Candidate verification (both indexed strategies) fetches candidates in
decreasing score order and stops as soon as the score-space upper bound of
the next candidate cannot displace the current K-th verified match — with
the paper's default threshold c = 0 every scored tid is formally a
"candidate", so ordered early-terminated verification is what keeps fetch
counts at the few-per-query level Figure 8 reports.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import TYPE_CHECKING, Iterable, Sequence
from dataclasses import dataclass, field, replace

from repro.core.candidates import ScoreTable
from repro.core.config import MatchConfig, check_query_overrides
from repro.core.fms import COUNTERS as FMS_COUNTERS
from repro.core.fms import PreparedInput, fms, prepare_input
from repro.core.fms import _row_bound, _row_cost  # the verify loop's two steps
from repro.core.minhash import MinHasher
from repro.core.osc import fetching_test, stopping_bound, stopping_test
from repro.core.reference import Interner, ReferenceTable, Row
from repro.core.resilience import Deadline, ResiliencePolicy, fallback_chain
from repro.core.tokens import TupleTokens
from repro.core.weights import WeightFunction, build_frequency_cache
from repro.db.database import Database
from repro.db.errors import DatabaseError, WarehouseConfigError
from repro.db.snapshot import load_database, save_database
from repro.eti.builder import BuildStats, build_eti
from repro.eti.index import EtiIndex
from repro.eti.signature import signature_entries
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import trace_span

if TYPE_CHECKING:
    from repro.db.pager import BufferPool


@dataclass(frozen=True)
class Match:
    """One fuzzy match: the reference tuple and its fms similarity."""

    tid: int
    similarity: float
    values: tuple[str | None, ...]


@dataclass
class MatchStats:
    """Per-query counters behind the paper's efficiency figures.

    ``candidates_fetched`` counts *logical* candidate fetches (one per
    distinct tid verified by the query), matching the paper's Figure 8
    metric; ``reference_cache_hits`` counts the query's own reads of
    candidate rows from the reference relation's resident store, and
    ``reference_cache_misses`` the tids it named that the store lacks
    (dangling index entries), so both are exact however many threads
    share the matcher.  The naive scan reads the relation itself and
    counts neither.
    """

    strategy: str = ""
    eti_lookups: int = 0
    tids_processed: int = 0
    tids_admitted: int = 0
    candidates_fetched: int = 0
    fms_evaluations: int = 0
    verify_budget_prunes: int = 0
    """Candidates whose budgeted verification proved they cannot displace
    the current K-th best: the cost lower bound cleared the budget, or
    the transformation DP stopped early or finished over it (the two
    steps of :func:`repro.core.fms.fms_budgeted`); pruned candidates never
    enter the result, so answers are unchanged."""
    osc_fetch_attempts: int = 0
    osc_succeeded: bool = False
    elapsed_seconds: float = 0.0
    reference_cache_hits: int = 0
    reference_cache_misses: int = 0
    # Always 0 (no cache fronts weights or signatures); kept only because the
    # frozen perf ledger, benchmarks/ledger/workloads.py, reads them by name.
    weight_cache_hits: int = 0
    weight_cache_misses: int = 0
    signature_cache_hits: int = 0
    signature_cache_misses: int = 0
    deduplicated: bool = False
    """True when this result was copied from an identical tuple earlier
    in the same :meth:`FuzzyMatcher.match_many` batch."""
    degraded: bool = False
    """True when the result is best-effort rather than exact: a query
    budget was exhausted mid-query or the strategy fell back down the
    ``osc → basic → naive`` chain.  Degraded results are flagged, never
    silently wrong."""
    degraded_reason: str | None = None
    """Why the result is degraded: ``"deadline"``, ``"page_fetches"``,
    ``"circuit_open"``, ``"fallback:<ErrorType>"``, or ``"stop_qgrams"``
    (no match, but the probe read a stop q-gram's nulled tid-list)."""
    fallback_from: str | None = None
    """The strategy originally requested, when a fallback answered."""
    wal_tail_pages: int = 0
    """Committed pages still waiting in the write-ahead log tail at the
    end of this query (0 when the reference database has no WAL).  A
    growing gauge across a batch signals an overdue checkpoint."""


@dataclass
class MatchResult:
    """Matches (best first) plus the query's statistics."""

    matches: list[Match] = field(default_factory=list)
    stats: MatchStats = field(default_factory=MatchStats)
    error: str | None = None
    """The failure message when this query errored under per-item fault
    isolation (``fail_fast=False``); ``None`` on success."""
    error_type: str | None = None
    """Class name of the :class:`~repro.db.errors.DatabaseError` behind
    :attr:`error`."""

    @property
    def best(self) -> Match | None:
        return self.matches[0] if self.matches else None

    @property
    def failed(self) -> bool:
        """True when the query errored and carries no matches."""
        return self.error is not None


@dataclass(frozen=True)
class QuerySignature:
    """The signature stage's output: all probe and verify need of the input."""

    prepared: PreparedInput  # the input weighed once, for every fms call
    entries: list[tuple[float, int, str, int]]  # (weight, coordinate, gram, column)
    entry_weight: float  # w(Q_p), the summed weight of the entries
    floor: float  # w(u)·c − w(u)·(1 − 1/q): what a candidate must score (Fig. 3 step 11)

    @property
    def weight(self) -> float:
        """``w(u)``, the column-weighted total token weight."""
        return self.prepared.weight


@dataclass
class ProbeOutcome:
    """The probe stage's output: the scores, or an OSC-certified answer."""

    score_table: ScoreTable
    lookups: int = 0
    matches: list[Match] | None = None  # the top K, once a stopping test certified them
    budget_reason: str | None = None  # why the lookups stopped early, if the budget ran out
    nulled: int = 0  # entries read whose tid-list is a stop q-gram's NULL


#: The :class:`MatchConfig` fields an ETI depends on, in the order
#: :meth:`FuzzyMatcher.open` checks them against the warehouse's record.
BUILD_FIELDS = ("q", "signature_size", "scheme", "seed", "stop_qgram_threshold")


def _build_fields(config: MatchConfig) -> dict[str, object]:
    """``config``'s :data:`BUILD_FIELDS` as a warehouse records them."""
    return {name: getattr(config, name) for name in BUILD_FIELDS} | {
        "scheme": config.scheme.value
    }


def _recorded_relation(
    recorded: dict[str, object] | None, config: MatchConfig
) -> tuple[str, list[str]]:
    """The reference relation and columns a warehouse records, once
    ``config`` agrees with its :data:`BUILD_FIELDS`."""
    if recorded is None:
        raise DatabaseError(
            "warehouse records no build config; rebuild the warehouse from "
            "its reference relation"
        )
    for name, given in _build_fields(config).items():
        if recorded.get(name) != given:
            raise WarehouseConfigError(name, recorded.get(name), given)
    relation, columns = recorded.get("relation"), recorded.get("columns")
    if isinstance(relation, str) and isinstance(columns, list):
        return relation, columns
    raise DatabaseError("warehouse build config names no reference relation")


def replicate_result(result: MatchResult) -> MatchResult:
    """An independent copy of ``result`` flagged as batch-deduplicated.

    Duplicate tuples inside one batch share the underlying query; each
    occurrence still gets its own result object (callers mutate match
    lists and stats freely), with ``stats.deduplicated`` set so the free
    queries are visible in accounting.
    """
    return MatchResult(
        matches=list(result.matches),
        stats=replace(result.stats, deduplicated=True),
        error=result.error,
        error_type=result.error_type,
    )


def failed_result(exc: DatabaseError, strategy: str = "") -> MatchResult:
    """A per-item error marker for fault-isolated batch execution."""
    return MatchResult(
        stats=MatchStats(strategy=strategy),
        error=str(exc) or type(exc).__name__,
        error_type=type(exc).__name__,
    )


class FuzzyMatcher:
    """Fuzzy match queries against one reference relation.

    Parameters
    ----------
    reference:
        The clean reference relation.
    weights:
        Token weight provider (normally an IDF frequency cache built from
        the reference relation).
    config:
        Algorithm parameters.
    eti:
        A built :class:`EtiIndex`; required for the indexed strategies,
        optional if only ``naive`` matching is used.
    hasher:
        The min-hash family.  Must be the one the ETI was built with; when
        omitted, a hasher with the config's (q, H, seed) is created, which
        matches an ETI built from the same config.
    registry:
        The :class:`~repro.obs.registry.MetricsRegistry` the matcher
        publishes its per-query metrics to; a fresh one by default.
        Candidate rows come from the reference relation's resident store
        (:meth:`ReferenceTable.row`), shared by every matcher over it.
    resilience:
        Optional :class:`~repro.core.resilience.ResiliencePolicy`.  When
        set, queries run under its limits (degrading instead of stalling),
        storage failures on the ETI path fall back down the
        ``osc → basic → naive`` chain, and the policy's circuit breaker
        gates the indexed strategies.  ``None`` (the default) keeps the
        exact pre-resilience behaviour: no limits, no fallback, errors
        propagate.

    :meth:`build` and :meth:`open` also set ``database``, the warehouse
    :meth:`save` checkpoints; :meth:`build` sets the ETI's ``build_stats``.
    """

    def __init__(
        self,
        reference: ReferenceTable,
        weights: WeightFunction,
        config: MatchConfig | None = None,
        eti: EtiIndex | None = None,
        hasher: MinHasher | None = None,
        registry: MetricsRegistry | None = None,
        resilience: ResiliencePolicy | None = None,
    ) -> None:
        self.reference = reference
        self.weights = weights
        self.config = config if config is not None else MatchConfig()
        self.eti = eti
        self.hasher = (
            hasher
            if hasher is not None
            else MinHasher(self.config.q, self.config.signature_size, self.config.seed)
        )
        # Per-query metrics live in one registry, so one snapshot carries a
        # matcher's full telemetry.
        self.registry = registry = registry if registry is not None else MetricsRegistry()
        self.resilience = resilience
        self.database: Database | None = None
        self.build_stats: BuildStats | None = None
        self._obs_match_seconds = {
            strategy: registry.histogram(
                "repro_match_seconds", {"strategy": strategy}
            )
            for strategy in ("naive", "basic", "osc")
        }
        self._obs_queries = registry.counter("repro_match_queries_total")
        self._obs_eti_lookups = registry.counter(
            "repro_match_eti_lookups_total", relaxed=True
        )
        self._obs_candidates = registry.counter(
            "repro_match_candidates_fetched_total", relaxed=True
        )
        self._obs_fms = registry.counter(
            "repro_match_fms_evaluations_total", relaxed=True
        )
        self._obs_prunes = registry.counter(
            "repro_match_verify_budget_prunes_total", relaxed=True
        )
        self._obs_wal_tail = registry.gauge("repro_wal_tail_pages")

    # ------------------------------------------------------------------
    # The warehouse: build, open, save
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        columns: Sequence[str],
        rows: Iterable[tuple[int, Sequence[str | None]]],
        config: MatchConfig,
        path: str | None = None,
        wal: bool = False,
    ) -> FuzzyMatcher:
        """Load ``(tid, values)`` ``rows`` over ``columns`` as the reference
        relation, weigh it and build its ETI, signed by the queries' hasher.

        In memory, or created at ``path`` (write-ahead logged when ``wal``)
        with its :data:`BUILD_FIELDS` recorded and checkpointed for
        :meth:`open`.
        """
        db = Database.in_memory() if path is None else Database.on_disk(path, wal=wal)
        try:
            reference = ReferenceTable(db, "reference", columns)
            reference.load(rows)
            weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
            hasher = MinHasher(config.q, config.signature_size, config.seed)
            eti, build_stats = build_eti(db, reference, config, hasher)
            db.build_config = _build_fields(config) | {
                "relation": reference.name, "columns": list(reference.column_names)
            }
            if path is not None:
                save_database(db)
        except (DatabaseError, ValueError):
            db.close()
            raise
        matcher = cls(reference, weights, config, eti, hasher)
        matcher.database = db
        matcher.build_stats = build_stats
        return matcher

    @classmethod
    def open(cls, path: str, config: MatchConfig, wal: bool = False) -> FuzzyMatcher:
        """Reattach the warehouse :meth:`build` saved at ``path``.

        The first of :data:`BUILD_FIELDS` on which ``config`` disagrees
        with the build raises :class:`~repro.db.errors.WarehouseConfigError`
        naming it, and a warehouse that records none is refused; the query
        fields (``k``, ``min_similarity``, ``use_osc``, …) are ``config``'s.
        """
        db = load_database(path, wal=wal)
        try:
            relation, columns = _recorded_relation(db.build_config, config)
            reference = ReferenceTable.attach(db, relation, columns)
            eti = EtiIndex(db.relation("eti"))
        except DatabaseError:
            db.close()
            raise
        except ValueError as exc:  # the record's columns are not the relation's
            db.close()
            raise DatabaseError(
                f"warehouse build config disagrees with its catalog: {exc}"
            ) from exc
        weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
        matcher = cls(reference, weights, config, eti)
        matcher.database = db
        return matcher

    def save(self) -> None:
        """Checkpoint the warehouse, its build config included."""
        if self.database is None:
            raise DatabaseError("no warehouse to save: use build(path=...) or open()")
        save_database(self.database)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def match(
        self,
        values: Sequence[str | None],
        k: int | None = None,
        min_similarity: float | None = None,
        strategy: str | None = None,
        deadline: Deadline | None = None,
        max_page_fetches: int | None = None,
    ) -> MatchResult:
        """Find the K fuzzy matches of one input tuple.

        ``strategy`` is ``"naive"``, ``"basic"``, or ``"osc"``; the default
        follows ``config.use_osc``.  ``k`` and ``min_similarity`` default to
        the config's values.  To see what a query did, run it under a
        :class:`~repro.obs.tracing.Tracer` root and print
        :func:`~repro.obs.tracing.render_span` of it.

        ``deadline`` and ``max_page_fetches`` (each defaulting to the
        resilience policy's limit, when one is configured) bound this
        query's wall clock and the physical page reads it may trigger from
        now; on exhaustion the best-so-far top-K comes back with
        ``stats.degraded`` set instead of the query stalling or raising.
        With a resilience policy, a :class:`DatabaseError` on an indexed
        strategy falls back down ``osc → basic → naive`` (and trips the
        circuit breaker on repeated failures) instead of propagating.
        """
        if len(values) != self.reference.num_columns:
            raise ValueError(
                f"input tuple has {len(values)} columns, reference has "
                f"{self.reference.num_columns}"
            )
        k = k if k is not None else self.config.k
        c = min_similarity if min_similarity is not None else self.config.min_similarity
        check_query_overrides(k, c)
        if strategy is None:
            strategy = "osc" if self.config.use_osc else "basic"
        if strategy not in ("naive", "basic", "osc"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if strategy != "naive" and self.eti is None:
            raise ValueError(f"strategy {strategy!r} requires a built ETI")

        policy = self.resilience
        if policy is not None:
            if deadline is None and policy.deadline_ms is not None:
                deadline = Deadline.after(policy.deadline_ms / 1000.0)
            if max_page_fetches is None:
                max_page_fetches = policy.max_page_fetches
        if max_page_fetches is not None:
            deadline = (deadline or Deadline(math.inf)).capped(
                self._pool(), max_page_fetches
            )

        started = time.perf_counter()
        db_before = self._db_counters()

        requested = strategy
        circuit_skipped = False
        attempts = [strategy]
        if policy is not None and policy.fallback:
            attempts = list(fallback_chain(strategy))
        if (
            policy is not None
            and requested != "naive"
            and not policy.breaker.allow()
        ):
            attempts = ["naive"]
            circuit_skipped = True

        last_error: DatabaseError | None = None
        result = None
        used = requested
        stats = MatchStats()
        matcher_ctx = trace_span("matcher", requested=requested)
        with matcher_ctx:
            for index, attempt in enumerate(attempts):
                indexed = attempt != "naive"
                # A failed attempt's work is discarded; its store reads
                # happened all the same, so they carry over.
                stats = MatchStats(
                    reference_cache_hits=stats.reference_cache_hits,
                    reference_cache_misses=stats.reference_cache_misses,
                )
                try:
                    if indexed:
                        result = self._match_indexed(
                            values, k, c, stats, use_osc=(attempt == "osc"),
                            deadline=deadline,
                        )
                    else:
                        result = self._match_naive(
                            values, k, c, stats, deadline=deadline
                        )
                except DatabaseError as exc:
                    if indexed and policy is not None:
                        policy.breaker.record_failure()
                    last_error = exc
                    if (
                        policy is None
                        or not policy.fallback
                        or index == len(attempts) - 1
                    ):
                        raise
                    continue
                if indexed and policy is not None:
                    policy.breaker.record_success()
                used = attempt
                break
            self._emit_db_span(db_before)
        matcher_ctx.annotate(strategy=used)

        result.stats.strategy = used
        if used != requested:
            result.stats.degraded = True
            result.stats.fallback_from = requested
            if result.stats.degraded_reason is None:
                result.stats.degraded_reason = (
                    "circuit_open"
                    if circuit_skipped
                    else f"fallback:{type(last_error).__name__}"
                )
        wal = self._pool().wal
        if wal is not None:
            result.stats.wal_tail_pages = wal.tail_pages
        result.stats.elapsed_seconds = time.perf_counter() - started
        self._publish_query(result.stats)
        return result

    def _pool(self) -> BufferPool:
        """The buffer pool under the reference relation (fetch metering)."""
        return self.reference.relation.heap.pool

    def _db_counters(self) -> tuple[int, int, int, int, int]:
        """``(pool hits, misses, physical reads, wal appends, syncs)``."""
        pool = self._pool()
        wal = pool.wal
        stats = pool.stats
        if wal is None:
            return (stats.hits, stats.misses, stats.physical_reads, 0, 0)
        return (
            stats.hits,
            stats.misses,
            stats.physical_reads,
            wal.stats.appends,
            wal.stats.syncs,
        )

    def _emit_db_span(self, before: tuple[int, int, int, int, int]) -> None:
        """Attach the query's storage-layer work as a ``db`` child span.

        Annotates buffer-pool hit/miss/physical-read and WAL
        append/fsync deltas onto the active trace; a no-op (one list
        check) when no trace is recording.
        """
        ctx = trace_span("db")
        with ctx:
            after = self._db_counters()
            wal = self._pool().wal
            ctx.annotate(
                pool_hits=after[0] - before[0],
                pool_misses=after[1] - before[1],
                physical_reads=after[2] - before[2],
                wal_appends=after[3] - before[3],
                wal_syncs=after[4] - before[4],
                wal_tail_pages=wal.tail_pages if wal is not None else 0,
            )

    def _publish_query(self, stats: MatchStats) -> None:
        """Fold one finished query's stats into the matcher's registry.

        The per-strategy latency histogram plus work counters mirror the
        :class:`MatchStats` fields an operator tunes by, so live
        aggregates and per-query numbers always come from one source.
        """
        hist = self._obs_match_seconds.get(stats.strategy)
        if hist is not None:
            hist.observe(stats.elapsed_seconds)
        self._obs_queries.inc()
        self._obs_eti_lookups.inc(stats.eti_lookups)
        self._obs_candidates.inc(stats.candidates_fetched)
        self._obs_fms.inc(stats.fms_evaluations)
        self._obs_prunes.inc(stats.verify_budget_prunes)
        self._obs_wal_tail.set(float(stats.wal_tail_pages))
        if stats.degraded and stats.degraded_reason is not None:
            self.registry.counter(
                "repro_match_degraded_total", {"reason": stats.degraded_reason}
            ).inc()

    def match_many(
        self,
        batch: Iterable[Sequence[str | None]],
        k: int | None = None,
        min_similarity: float | None = None,
        strategy: str | None = None,
        fail_fast: bool = True,
    ) -> list[MatchResult]:
        """Match a batch of input tuples; results in input order.

        The one batch engine, behind the ETL-style usage of Figure 1:
        identical input tuples are matched once and their results
        replicated (``stats.deduplicated`` marks the copies).
        Results are returned in input order and are identical to calling
        :meth:`match` per tuple.
        :meth:`BatchReport.from_results <repro.core.batch.BatchReport.from_results>`
        accounts a run.

        With ``fail_fast=False`` a :class:`DatabaseError` on one tuple is
        isolated into that tuple's result (``result.error`` set, no
        matches) instead of killing the whole batch; programming errors
        (bad arity, unknown strategy) always raise.
        """
        results: list[MatchResult] = []
        computed: dict[tuple, MatchResult] = {}
        for values in batch:
            key: tuple | None
            try:
                key = tuple(values)
                first = computed.get(key)
            except TypeError:  # unhashable values: matched standalone
                key, first = None, None
            if first is not None:
                results.append(replicate_result(first))
                continue
            try:
                result = self.match(
                    values,
                    k=k,
                    min_similarity=min_similarity,
                    strategy=strategy,
                )
            except DatabaseError as exc:
                if fail_fast:
                    raise
                result = failed_result(exc, strategy or "")
            if key is not None:
                computed[key] = result
            results.append(result)
        return results

    # ------------------------------------------------------------------
    # Naive scan
    # ------------------------------------------------------------------

    def _match_naive(
        self,
        values: Sequence[str | None],
        k: int,
        c: float,
        stats: MatchStats,
        deadline: Deadline | None = None,
    ) -> MatchResult:
        """The independent oracle: exact fms against every tuple of a scan.

        It reads and tokenizes the relation itself, never the resident
        store; a private per-query :class:`Interner` lets the query's
        column memos serve every scanned tuple sharing a value.
        """
        result = MatchResult(stats=stats)
        prepared = prepare_input(
            TupleTokens.from_values(values), self.weights, self.config
        )
        interner = Interner(self.reference.num_columns)

        # Bounded top-K selection: a size-K min-heap on (similarity, -tid)
        # whose root is the weakest kept match — O(N log K) instead of
        # sorting the whole admitted set.  tid is unique, so the heap
        # never compares row values.
        kept: list[tuple[float, int, tuple]] = []
        scan_ctx = trace_span("matcher.naive_scan")
        with scan_ctx:
            for tid, row in self.reference.scan():
                if deadline is not None and stats.fms_evaluations % 32 == 0:
                    reason = deadline.exhausted()
                    if reason is not None:
                        stats.degraded = True
                        stats.degraded_reason = reason
                        break
                similarity = fms(
                    prepared, interner.row(row), self.weights, self.config
                )
                stats.fms_evaluations += 1
                if similarity < c:
                    continue
                entry = (similarity, -tid, row)
                if len(kept) < k:
                    heapq.heappush(kept, entry)
                elif entry > kept[0]:
                    heapq.heappushpop(kept, entry)
        scan_ctx.annotate(fms_evaluations=stats.fms_evaluations)
        kept.sort(key=lambda e: (-e[0], -e[1]))
        result.matches = [
            Match(-neg_tid, similarity, row) for similarity, neg_tid, row in kept
        ]
        return result

    # ------------------------------------------------------------------
    # Indexed strategies (basic + OSC): signature → probe → verify
    # ------------------------------------------------------------------

    def _match_indexed(
        self,
        values: Sequence[str | None],
        k: int,
        c: float,
        stats: MatchStats,
        use_osc: bool,
        deadline: Deadline | None = None,
    ) -> MatchResult:
        """Figures 3–4 as three stages handing plain data to the next.

        Thresholding sits between probe and verify: the score table's
        tids at or above the retention floor, best first, are the
        candidates — cut to the top K when the deadline ran out mid-probe,
        so a degraded answer costs a bounded amount of extra work.  An
        empty answer after the probe read a stop q-gram's nulled tid-list
        is flagged ``degraded`` (reason ``"stop_qgrams"``), never silent.
        """
        result = MatchResult(stats=stats)
        query = self._stage_signature(values, c, use_osc)
        if query is None:
            return result  # all token weights are zero: nothing can match
        fms_cache: dict[int, tuple[float, Row]] = {}
        probe = self._stage_probe(query, k, c, use_osc, deadline, fms_cache, stats)
        if probe.matches is not None:
            result.matches = probe.matches
        else:
            candidates = probe.score_table.candidates(query.floor)
            if probe.budget_reason is not None:
                stats.degraded = True
                stats.degraded_reason = probe.budget_reason
                candidates = candidates[: max(k, 1)]
                deadline = None  # spent: verification must not poll it again
            result.matches = self._stage_verify(
                query, candidates, k, c, deadline, fms_cache, stats
            )
        if not result.matches and probe.nulled and not stats.degraded:
            # Not "no tuple matches": the nulled lists' tids went unread.
            stats.degraded = True
            stats.degraded_reason = "stop_qgrams"
        stats.eti_lookups = probe.lookups
        stats.tids_processed = probe.score_table.stats.tids_processed
        stats.tids_admitted = probe.score_table.stats.tids_admitted
        return result

    def _stage_signature(
        self, values: Sequence[str | None], c: float, use_osc: bool
    ) -> QuerySignature | None:
        """Stage 1: tokenize, weigh, and expand into signature entries.

        The weighed input (:class:`~repro.core.fms.PreparedInput`) rides
        along to verification, so no fms call weighs an input token again.
        Returns ``None`` when every token weighs zero (no reference tuple
        can score).  With ``use_osc`` the entries come back in decreasing
        weight order, ties in original (token) order for determinism.
        """
        config = self.config
        tokens = TupleTokens.from_values(values)
        with trace_span("matcher.signature_build") as span:
            prepared = prepare_input(tokens, self.weights, config)
            input_weight = prepared.weight
            if span is not None:
                span.annotate(tokens=tokens.token_count(), input_weight=input_weight)
            if input_weight <= 0.0:
                return None
            # Only a reference token's signature is memoized: a dirty
            # token's would grow the hasher's memo with every query.
            frequency = self.weights.frequency
            entries = [
                (weight * entry.weight_fraction, entry.coordinate, entry.gram, column)
                for column, rows in enumerate(prepared.sets)
                for token, weight, _, _, _ in rows
                for entry in signature_entries(
                    token, self.hasher, config, frequency(token, column) > 0
                )
            ]
            if use_osc:
                entries.sort(key=lambda e: -e[0])
            threshold = c * input_weight
            if span is not None:
                span.annotate(entries=len(entries), threshold=threshold)
        return QuerySignature(
            prepared=prepared,
            entries=entries,
            entry_weight=sum(e[0] for e in entries),
            floor=threshold - input_weight * (1.0 - 1.0 / config.q),
        )

    def _stage_probe(
        self,
        query: QuerySignature,
        k: int,
        c: float,
        use_osc: bool,
        deadline: Deadline | None,
        fms_cache: dict[int, tuple[float, Row]],
        stats: MatchStats,
    ) -> ProbeOutcome:
        """Stage 2: look every entry up in the ETI, accumulating tid scores.

        With ``use_osc`` the fetching test runs after each lookup and,
        when it passes, the top K are verified exactly (no cost budget:
        the stopping test needs exact fms); a passed stopping test
        certifies them as the answer (``outcome.matches``).  A spent
        deadline stops the lookups (``outcome.budget_reason``).
        """
        # Admission bar for new tids.  The paper's Figure 3 step 9b uses
        # w(u)·c outright, but its step 11 retains tids down to w(u)·c −
        # AdjustmentTerm; admitting against the unadjusted bar would starve
        # candidates the retention floor means to keep (visible for c > 0:
        # a tid first seen after (1−c) of the signature weight can still
        # clear c once the adjustment is credited).  We admit against the
        # adjusted floor, which is consistent and still bounds table size.
        score_table = ScoreTable(max(query.floor, 0.0))
        outcome = ProbeOutcome(score_table)
        processed_weight = 0.0
        last_test: tuple[float, float] | None = None  # (outside cap, weakest fms)
        with trace_span("matcher.eti_lookups") as span:
            for qgram_weight, coordinate, gram, column in query.entries:
                if deadline is not None:
                    outcome.budget_reason = deadline.exhausted()
                    if outcome.budget_reason is not None:
                        break
                outcome.lookups += 1
                eti_entry = self.eti.lookup(gram, coordinate, column)
                tid_list = eti_entry.tid_list if eti_entry is not None else ()
                if tid_list:
                    score_table.add_tid_list(
                        tid_list, qgram_weight, query.entry_weight - processed_weight
                    )
                elif tid_list is None:
                    outcome.nulled += 1  # a stop q-gram: which tids hold it is unknown
                processed_weight += qgram_weight

                if not use_osc or not score_table.scores:
                    continue
                decision = fetching_test(score_table, k, processed_weight, query.entry_weight)
                if not decision.should_fetch:
                    continue
                stats.osc_fetch_attempts += 1
                similarities = [
                    # Exact fms: the stopping test cannot use a pruned bound.
                    self._score_candidate(tid, query, fms_cache, stats)[0]
                    for tid in decision.top_tids
                ]
                last_test = (decision.outside_score_cap, min(similarities, default=0.0))
                if stopping_test(similarities, decision.outside_score_cap, query.weight):
                    stats.osc_succeeded = True
                    matches = [
                        _match(tid, similarity, fms_cache[tid][1])
                        for tid, similarity in zip(decision.top_tids, similarities)
                        if similarity >= c
                    ]
                    matches.sort(key=lambda m: (-m.similarity, m.tid))
                    outcome.matches = matches
                    break
            if span is not None:
                span.annotate(
                    lookups=outcome.lookups,
                    tids_processed=score_table.stats.tids_processed,
                    tids_admitted=score_table.stats.tids_admitted,
                    fetched=stats.candidates_fetched,
                )
                if use_osc:
                    span.annotate(
                        osc_fetch_attempts=stats.osc_fetch_attempts,
                        osc_succeeded=stats.osc_succeeded,
                    )
                if last_test is not None:
                    span.annotate(
                        osc_bound=stopping_bound(last_test[0], query.weight),
                        osc_min_fms=last_test[1],
                    )
                if outcome.budget_reason is not None:
                    span.annotate(budget=outcome.budget_reason)
                if outcome.nulled:
                    span.annotate(nulled=outcome.nulled)
        return outcome

    def _stage_verify(
        self,
        query: QuerySignature,
        candidates: list[tuple[int, float]],
        k: int,
        c: float,
        deadline: Deadline | None,
        fms_cache: dict[int, tuple[float, Row]],
        stats: MatchStats,
    ) -> list[Match]:
        """Stage 3: fetch ``candidates`` (best score first) and rank by fms.

        Stops once the next candidate's score-space upper bound cannot
        reach ``c`` or displace the K-th verified match, or when the
        deadline runs out (flagging the stats degraded).

        One loop does :func:`~repro.core.fms.fms_budgeted`'s work for
        every candidate, with its answers and counters.  Once K matches
        are verified, a candidate can only displace the K-th if its
        transformation cost stays under ``(1 − kth) · w(u)``; that budget
        and the bound's prune limit change only when the K-th does.  A
        candidate's row comes from the resident store, bound once per
        query with its token-mask table, and meets the cost lower bound
        over the query's column memos; only a survivor runs the column DP, under the same budget.
        A pruned candidate is counted in locals, folded into ``stats``
        once, and never cached: ``fms_cache`` holds exact results only.
        ``query.weight`` is positive (the signature stage returns no query
        otherwise).
        """
        prepared = query.prepared
        weight = prepared.weight
        rows = self.reference.resident_rows()
        masks = self.reference.token_masks()
        # osc.similarity_upper_bound, inlined: min(two_q · score / w(u) + offset, 1).
        two_q = 2.0 / self.config.q
        offset = 1.0 - 1.0 / self.config.q
        verified: list[tuple[float, int]] = []
        kth: float | None = None  # verified[k - 1]'s similarity, once K are verified
        budget: float | None = None  # (1 − kth) · w(u), while it is below w(u)
        limit = 0.0  # the bound prunes above this, once there is a budget
        # Every new, resident candidate is one store read, one logical fetch
        # and one fms evaluation.
        fetched = prunes = bound_prunes = misses = 0
        stopped = "candidates_exhausted"
        with trace_span("matcher.verify", candidates=len(candidates)) as span:
            for position, (tid, score) in enumerate(candidates):
                if deadline is not None and position > 0:
                    reason = deadline.exhausted()
                    if reason is not None:
                        stats.degraded = True
                        stats.degraded_reason = reason
                        stopped = "budget"
                        break
                upper_bound = two_q * (score / weight) + offset
                if upper_bound > 1.0:
                    upper_bound = 1.0
                if upper_bound < c:
                    stopped = "bound_below_threshold"
                    break
                if kth is not None and upper_bound <= kth:
                    stopped = "cannot_displace_kth"
                    break
                cached = fms_cache.get(tid)
                if cached is not None:
                    similarity = cached[0]  # an OSC fetch verified it exactly (or dangling)
                else:
                    row = rows.get(tid)
                    if row is None:
                        # A dangling index entry: −1, which no threshold admits.
                        misses += 1
                        fms_cache[tid] = (-1.0, ())
                        continue
                    fetched += 1
                    if budget is not None and _row_bound(prepared, row, limit, masks) > limit:
                        prunes += 1
                        bound_prunes += 1
                        continue
                    cost = _row_cost(prepared, row, budget=budget)
                    if budget is not None and cost > budget:
                        prunes += 1  # the DP abandoned, or finished over budget
                        continue
                    similarity = 1.0 - min(cost / weight, 1.0)
                    fms_cache[tid] = (similarity, row)
                if similarity >= c:
                    verified.append((similarity, tid))
                    verified.sort(key=lambda item: (-item[0], item[1]))
                    del verified[k:]
                    if len(verified) >= k and verified[k - 1][0] != kth:
                        kth = verified[k - 1][0]
                        budget = (1.0 - kth) * weight
                        if budget >= weight:
                            # fms floors at 0 once cost reaches w(u): no budget.
                            budget = None
                        else:
                            # The bound's float sum may differ from the DP's
                            # by rounding; it prunes only past this margin.
                            limit = budget * (1.0 + 1e-9) + 1e-12
            stats.candidates_fetched += fetched
            stats.reference_cache_hits += fetched
            stats.fms_evaluations += fetched
            stats.verify_budget_prunes += prunes
            stats.reference_cache_misses += misses
            if bound_prunes:
                FMS_COUNTERS.add_bound_prunes(bound_prunes)
            if span is not None:
                span.annotate(
                    verified=len(verified),
                    fetched=fetched,
                    budget_prunes=stats.verify_budget_prunes,
                    stopped=stopped,
                )
        return [
            _match(tid, similarity, fms_cache[tid][1]) for similarity, tid in verified
        ]

    def _score_candidate(
        self,
        tid: int,
        query: QuerySignature,
        fms_cache: dict[int, tuple[float, Row]],
        stats: MatchStats,
    ) -> tuple[float, Row]:
        """Read ``tid``'s row (once per query) and compute its exact fms (once).

        Returns ``(similarity, row)``.  The row comes from the reference
        relation's resident store, so a candidate costs neither a B+-tree
        fetch nor a tokenization; ``candidates_fetched`` still counts it
        (the Figure 8 metric is logical fetches per query).

        A tid the ETI names but the reference relation no longer holds
        (possible when index maintenance lags deletes) verifies to
        similarity −1, which no threshold admits and no stopping test
        accepts — dangling index entries degrade, they don't crash.
        """
        cached = fms_cache.get(tid)
        if cached is not None:
            return cached
        row = self.reference.row(tid)
        if row is None:
            stats.reference_cache_misses += 1
            fms_cache[tid] = (-1.0, ())
            return fms_cache[tid]
        stats.reference_cache_hits += 1
        stats.candidates_fetched += 1
        stats.fms_evaluations += 1
        fms_cache[tid] = (fms(query.prepared, row, self.weights, self.config), row)
        return fms_cache[tid]


def _match(tid: int, similarity: float, row: Row) -> Match:
    """The :class:`Match` of a verified candidate, its values rebuilt from
    the resident row."""
    return Match(tid, similarity, tuple(value.raw for value in row))
