"""Shared fixtures: the paper's running example and a small workbench."""

from __future__ import annotations

import pytest

from repro.core.config import MatchConfig, SignatureScheme
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
    """A budget meter that reports ``reason`` after ``polls`` polls."""

    def __init__(self, polls, reason="deadline"):
        self.polls = polls
        self.reason = reason

    def exhausted(self):
        self.polls -= 1
        return self.reason if self.polls < 0 else None


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
