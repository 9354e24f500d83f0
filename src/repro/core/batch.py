"""Accounting for one batch run: Figure 1's ETL loop at scale.

The batch engine is :meth:`FuzzyMatcher.match_many
<repro.core.matcher.FuzzyMatcher.match_many>`: identical tuples in one
batch are matched once, and every candidate is read from the reference
relation's resident store, tokenized once when the store was built (the
PASS-JOIN / ApproxJoin preprocessing idea).  Verification is CPU-bound,
so a thread pool over the same matcher would buy nothing; threads that
share one matcher exist only for connection concurrency
(:class:`repro.serve.server.MatchServer` workers).

:class:`BatchReport` is computed from a run's results.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.matcher import FuzzyMatcher, MatchResult
from repro.core.resilience import ResiliencePolicy


@dataclass
class BatchReport:
    """Accounting for one :meth:`FuzzyMatcher.match_many` run.

    ``degraded_reasons`` and ``failed_types`` break the two outcome
    counters down by *why*: reason string (``"deadline"``,
    ``"fallback:TransientIOError"``, …) → count and error class name →
    count.  They survive :meth:`to_json`, so a ``fail_fast=False`` batch
    run reports the same per-item degradation fields a server response
    carries — not just the totals.
    """

    total_queries: int = 0
    unique_queries: int = 0
    elapsed_seconds: float = 0.0
    degraded_queries: int = 0
    failed_queries: int = 0
    degraded_reasons: dict[str, int] = field(default_factory=dict)
    failed_types: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_results(
        cls,
        results: Sequence[MatchResult],
        elapsed_seconds: float,
    ) -> BatchReport:
        """The report for ``results``, one per batch item in input order.

        A result without ``stats.deduplicated`` was matched; the others
        are replicas of an identical earlier tuple's result.
        """
        degraded = Counter(
            r.stats.degraded_reason or "unknown" for r in results if r.stats.degraded
        )
        failed = Counter(r.error_type or "DatabaseError" for r in results if r.failed)
        return cls(
            total_queries=len(results),
            unique_queries=sum(1 for r in results if not r.stats.deduplicated),
            elapsed_seconds=elapsed_seconds,
            degraded_queries=sum(degraded.values()),
            failed_queries=sum(failed.values()),
            degraded_reasons=dict(degraded),
            failed_types=dict(failed),
        )

    @property
    def deduplicated_queries(self) -> int:
        return self.total_queries - self.unique_queries

    @property
    def queries_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.total_queries / self.elapsed_seconds

    def as_dict(self) -> dict[str, Any]:
        """The report as plain data, derived properties included."""
        return {
            "total_queries": self.total_queries,
            "unique_queries": self.unique_queries,
            "deduplicated_queries": self.deduplicated_queries,
            "elapsed_seconds": self.elapsed_seconds,
            "queries_per_second": self.queries_per_second,
            "degraded_queries": self.degraded_queries,
            "failed_queries": self.failed_queries,
            "degraded_reasons": dict(sorted(self.degraded_reasons.items())),
            "failed_types": dict(sorted(self.failed_types.items())),
        }

    def to_json(self, indent: int | None = None) -> str:
        """JSON form of :meth:`as_dict` (keys in a stable order)."""
        return json.dumps(self.as_dict(), indent=indent)


class BatchMatcher:
    """Shim for the frozen perf ledger's serve run; it goes with ROADMAP item 1(c)."""

    def __init__(self, matcher: FuzzyMatcher) -> None:
        self._matcher = matcher

    @classmethod
    def from_matcher(cls, m: FuzzyMatcher, resilience: ResiliencePolicy | None = None,
                     **unused: object) -> BatchMatcher:
        return cls(FuzzyMatcher(m.reference, m.weights, m.config, m.eti, m.hasher,
                                resilience=resilience))

    def worker_matcher(self) -> FuzzyMatcher:
        """A matcher over ``m``'s components under ``resilience``, fresh caches."""
        return self._matcher
