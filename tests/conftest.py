"""Shared fixtures: the paper's running example and a small workbench."""

from __future__ import annotations

import pytest

from repro.core.config import MatchConfig, SignatureScheme
from repro.core.fms import fms_budgeted
from repro.core.matcher import Match
from repro.core.osc import similarity_upper_bound
from repro.core.reference import ReferenceTable
from repro.core.weights import build_frequency_cache
from repro.db.database import Database
from repro.eti.builder import build_eti

# Table 1 of the paper: the organization reference relation.
ORG_ROWS = (
    (1, ("Boeing Company", "Seattle", "WA", "98004")),
    (2, ("Bon Corporation", "Seattle", "WA", "98014")),
    (3, ("Companions", "Seattle", "WA", "98024")),
)

# Table 2: erroneous input tuples (I1..I4) and their intended targets.
ORG_INPUTS = (
    (("Beoing Company", "Seattle", "WA", "98004"), 1),
    (("Beoing Co.", "Seattle", "WA", "98004"), 1),
    (("Boeing Corporation", "Seattle", "WA", "98004"), 1),
    (("Company Beoing", "Seattle", None, "98014"), 1),
)

ORG_COLUMNS = ("org_name", "city", "state", "zipcode")


class ZeroWeights:
    """A weight provider under which no token weighs anything."""

    def weight(self, token, column):
        return 0.0

    def frequency(self, token, column):
        return 1


class SpentAfter:
    """A stand-in :class:`~repro.core.resilience.Deadline` whose
    :meth:`exhausted` poll reports ``reason`` after ``polls`` polls."""

    def __init__(self, polls, reason="deadline"):
        self.polls = polls
        self.reason = reason

    def exhausted(self):
        self.polls -= 1
        return self.reason if self.polls < 0 else None


def oracle_verify(
    matcher, query, candidates, k, c, deadline, fms_cache, stats, budgeted=True
):
    """A stand-in for ``FuzzyMatcher._stage_verify``: one
    :func:`~repro.core.fms.fms_budgeted` call per candidate, under the
    cost budget the running K-th verified similarity sets (none at all
    with ``budgeted=False``, which verifies every candidate exactly).

    Bind it with ``functools.partial(oracle_verify, matcher)``.
    """
    verified = []
    for position, (tid, score) in enumerate(candidates):
        if deadline is not None and position > 0:
            reason = deadline.exhausted()
            if reason is not None:
                stats.degraded = True
                stats.degraded_reason = reason
                break
        upper_bound = similarity_upper_bound(score, query.weight, matcher.config.q)
        if upper_bound < c:
            break
        if len(verified) >= k and upper_bound <= verified[k - 1][0]:
            break
        cached = fms_cache.get(tid)
        if cached is not None:
            similarity = cached[0]
        else:
            row = matcher.reference.row(tid)
            if row is None:
                stats.reference_cache_misses += 1
                fms_cache[tid] = (-1.0, ())
                continue
            stats.reference_cache_hits += 1
            stats.candidates_fetched += 1
            budget = None
            if budgeted and len(verified) >= k:
                budget = (1.0 - verified[k - 1][0]) * query.weight
            similarity, pruned = fms_budgeted(
                query.prepared, row, matcher.weights, matcher.config, budget
            )
            stats.fms_evaluations += 1
            if pruned:
                stats.verify_budget_prunes += 1
                continue
            fms_cache[tid] = (similarity, row)
        if similarity >= c:
            verified.append((similarity, tid))
            verified.sort(key=lambda item: (-item[0], item[1]))
            del verified[k:]
    return [
        Match(tid, similarity, tuple(value.raw for value in fms_cache[tid][1]))
        for similarity, tid in verified
    ]


@pytest.fixture()
def org_db():
    db = Database.in_memory()
    yield db
    db.close()


@pytest.fixture()
def org_reference(org_db):
    """The Table 1 reference relation loaded into the engine."""
    reference = ReferenceTable(org_db, "orgs", list(ORG_COLUMNS))
    reference.load(ORG_ROWS)
    return reference


@pytest.fixture()
def org_weights(org_reference):
    return build_frequency_cache(
        org_reference.scan_values(), org_reference.num_columns
    )


@pytest.fixture()
def paper_config():
    """q=3, H=2 — the parameters of the paper's worked examples."""
    return MatchConfig(q=3, signature_size=2, scheme=SignatureScheme.QGRAMS)


@pytest.fixture()
def org_eti(org_db, org_reference, paper_config):
    eti, _ = build_eti(org_db, org_reference, paper_config)
    return eti
