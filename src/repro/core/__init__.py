"""Core fuzzy-match machinery: the paper's primary contribution.

- :mod:`repro.core.strings`: character-level edit distance and q-gram sets.
- :mod:`repro.core.tokens`: tokenization with per-column token identity.
- :mod:`repro.core.weights`: IDF token weights and the token-frequency cache.
- :mod:`repro.core.fms`: the fuzzy match similarity function *fms* (§3).
- :mod:`repro.core.minhash`: min-hash signatures over q-gram sets (§4.1).
- :mod:`repro.core.fms_apx`: the indexable upper bounds *fmsapx* / *fmst_apx*.
- :mod:`repro.core.matcher`: the naive, basic (§4.3.1) and OSC (§4.3.2)
  K-fuzzy-match algorithms over the ETI.
- :mod:`repro.core.resilience`: per-query deadlines, circuit breaking, and
  the degraded-mode contract for faulty storage.
"""

from repro.core.batch import BatchReport
from repro.core.cache import LRUCache
from repro.core.config import MatchConfig, SignatureScheme
from repro.core.fms import fms, transformation_cost
from repro.core.fms_apx import fms_apx, fms_t_apx
from repro.core.matcher import FuzzyMatcher, Match, MatchStats, failed_result
from repro.core.minhash import MinHasher
from repro.core.reference import ReferenceTable
from repro.core.resilience import (
    CircuitBreaker,
    Deadline,
    ResiliencePolicy,
    RetryPolicy,
    fallback_chain,
)
from repro.core.strings import edit_distance, edit_distance_raw, qgram_set
from repro.core.tokens import TupleTokens, tokenize
from repro.core.weights import (
    BoundedTokenFrequencyCache,
    HashedTokenFrequencyCache,
    TokenFrequencyCache,
    build_frequency_cache,
)

__all__ = [
    "BatchReport",
    "BoundedTokenFrequencyCache",
    "build_frequency_cache",
    "CircuitBreaker",
    "Deadline",
    "LRUCache",
    "edit_distance",
    "failed_result",
    "fallback_chain",
    "edit_distance_raw",
    "fms",
    "fms_apx",
    "fms_t_apx",
    "FuzzyMatcher",
    "HashedTokenFrequencyCache",
    "Match",
    "MatchConfig",
    "MatchStats",
    "MinHasher",
    "qgram_set",
    "ReferenceTable",
    "ResiliencePolicy",
    "RetryPolicy",
    "SignatureScheme",
    "tokenize",
    "TokenFrequencyCache",
    "transformation_cost",
    "TupleTokens",
]
