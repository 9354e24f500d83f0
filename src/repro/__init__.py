"""repro: a full reproduction of "Robust and Efficient Fuzzy Match for
Online Data Cleaning" (Chaudhuri, Ganjam, Ganti, Motwani — SIGMOD 2003).

Quickstart::

    from repro import (
        Database, MatchConfig, ReferenceTable, FuzzyMatcher,
        build_frequency_cache, build_eti,
    )

    db = Database.in_memory()
    reference = ReferenceTable(db, "customers", ["name", "city", "state", "zip"])
    reference.load(enumerate([
        ("Boeing Company", "Seattle", "WA", "98004"),
        ("Bon Corporation", "Seattle", "WA", "98014"),
        ("Companions", "Seattle", "WA", "98024"),
    ]))

    config = MatchConfig(q=3, signature_size=2)
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    eti, _ = build_eti(db, reference, config)

    matcher = FuzzyMatcher(reference, weights, config, eti)
    result = matcher.match(("Beoing Company", "Seattle", "WA", "98004"))
    print(result.best)

See DESIGN.md for the architecture and EXPERIMENTS.md for the paper's
tables and figures regenerated by the benchmark harness.
"""

from repro.core import (
    BatchMatcher,
    BatchReport,
    CircuitBreaker,
    Deadline,
    FuzzyMatcher,
    Match,
    MatchConfig,
    MatcherCaches,
    MatchStats,
    MinHasher,
    ReferenceTable,
    ResiliencePolicy,
    SignatureScheme,
    build_frequency_cache,
    edit_distance,
    fms,
    fms_apx,
    fms_t_apx,
    qgram_set,
    tokenize,
)
from repro.db import Database
from repro.dedup import FuzzyDeduplicator
from repro.eti import EtiIndex, EtiMaintainer, EtiWeightProvider, build_eti

__version__ = "1.0.0"

__all__ = [
    "BatchMatcher",
    "BatchReport",
    "build_eti",
    "build_frequency_cache",
    "CircuitBreaker",
    "Database",
    "Deadline",
    "MatcherCaches",
    "edit_distance",
    "EtiIndex",
    "EtiMaintainer",
    "EtiWeightProvider",
    "fms",
    "FuzzyDeduplicator",
    "fms_apx",
    "fms_t_apx",
    "FuzzyMatcher",
    "Match",
    "MatchConfig",
    "MatchStats",
    "MinHasher",
    "qgram_set",
    "ReferenceTable",
    "ResiliencePolicy",
    "SignatureScheme",
    "tokenize",
    "__version__",
]
