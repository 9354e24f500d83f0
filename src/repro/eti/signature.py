"""Token signature schemes: Q_H and Q+T_H (§4.1, §5.1, §6.2 notation).

A token's signature is the list of ETI coordinates it is indexed (and
looked up) under.  The *same* function drives both the ETI builder and
query processing, which is what makes lookups find what the builder wrote.

- ``Q_H``: the H min-hash q-grams at coordinates 1..H, each carrying
  ``1/|mh(t)|`` of the token's weight.  A short token (|t| ≤ q) has the
  token itself as its single coordinate-1 entry.
- ``Q+T_H``: additionally the token itself at coordinate 0.  Following
  §5.1, the token's importance is split equally between the token
  coordinate (fraction ½) and its q-gram signature (fraction ½ spread over
  the q-grams).  ``Q+T_0`` is the tokens-only scheme: coordinate 0 carries
  the full weight and there are no q-gram entries.
- ``Full``: every distinct q-gram of the token, all at coordinate 1, each
  carrying an equal weight share — the full-q-gram-table baseline from the
  related work the ETI is designed to undercut in size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import MatchConfig, SignatureScheme
from repro.core.minhash import MinHasher

TOKEN_COORDINATE = 0


@dataclass(frozen=True)
class SignatureEntry:
    """One indexable coordinate of a token's signature.

    ``weight_fraction`` is the share of the token's IDF weight this entry
    carries during score accumulation (w(q_k) = w(t) · weight_fraction).
    """

    coordinate: int
    gram: str
    weight_fraction: float


def signature_entries(
    token: str, hasher: MinHasher, config: MatchConfig, memo: bool = True
) -> tuple[SignatureEntry, ...]:
    """The signature entries of ``token`` under the configured scheme;
    ``memo`` is :meth:`MinHasher.signature`'s."""
    if not token:
        return ()
    if config.scheme is SignatureScheme.FULL_QGRAMS:
        grams = sorted(set(hasher.qgrams(token)))
        fraction = 1.0 / len(grams)
        return tuple(SignatureEntry(1, gram, fraction) for gram in grams)
    entries: list[SignatureEntry] = []
    use_token = config.scheme is SignatureScheme.QGRAMS_PLUS_TOKEN
    if use_token and config.signature_size == 0:
        return (SignatureEntry(TOKEN_COORDINATE, token, 1.0),)
    qgram_share = 0.5 if use_token else 1.0
    if use_token:
        entries.append(SignatureEntry(TOKEN_COORDINATE, token, 0.5))
    signature = hasher.signature(token, memo)
    if signature:
        fraction = qgram_share / len(signature)
        entries.extend(
            SignatureEntry(i + 1, gram, fraction)
            for i, gram in enumerate(signature)
        )
    return tuple(entries)
