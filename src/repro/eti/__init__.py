"""The Error Tolerant Index (ETI) — §4.2 of the paper.

The ETI is a *standard relation* with schema ``[QGram, Coordinate, Column,
Frequency, Tid-list]`` plus a clustered B+-tree index on ``[QGram,
Coordinate, Column]``.  It is built the way the paper describes: scan the
reference relation emitting pre-ETI rows ``[QGram, Coordinate, Column,
Tid]``, run the ETI-query (an ORDER BY over all four columns via external
sort), then group runs of equal ``(QGram, Coordinate, Column)`` into ETI
tuples, replacing tid-lists longer than the stop-q-gram threshold with
NULL.  The pre-ETI is a stream into the sorter, never a stored relation.
"""

from repro.eti.builder import BuildStats, EtiBuilder, TidListTooLargeError, build_eti
from repro.eti.index import EtiEntry, EtiIndex
from repro.eti.maintenance import EtiMaintainer
from repro.eti.schema import eti_columns
from repro.eti.signature import SignatureEntry, signature_entries
from repro.eti.weights import EtiWeightProvider

__all__ = [
    "build_eti",
    "BuildStats",
    "eti_columns",
    "EtiBuilder",
    "EtiEntry",
    "EtiIndex",
    "EtiMaintainer",
    "EtiWeightProvider",
    "SignatureEntry",
    "signature_entries",
    "TidListTooLargeError",
]
