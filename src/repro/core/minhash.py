"""Min-hash signatures over q-gram sets (§4.1).

``mh_i(S) = argmin_{a ∈ S} h_i(a)`` for H independent hash functions — the
signature stores the *q-grams themselves* (the argmins), because the ETI is
keyed on q-gram strings.  The hash family is a keyed 64-bit mix over
blake2b, seeded deterministically: ETI construction and query processing
must compute identical signatures, and results must be reproducible across
processes (Python's builtin ``hash`` for str is salted per process, so it
is deliberately *not* used).

Short-token convention (§4.2/§4.3.1): a token no longer than ``q``
characters has the token itself as its entire signature.
"""

from __future__ import annotations

import hashlib

from repro.core.cache import BoundedMemo


class MinHasher:
    """Deterministic min-hash signature generator.

    Parameters
    ----------
    q:
        q-gram size.
    num_hashes:
        H, the number of signature coordinates.
    seed:
        Family seed; the same (q, num_hashes, seed) triple always produces
        the same signatures.
    """

    def __init__(self, q: int, num_hashes: int, seed: int = 2003) -> None:
        if q < 1:
            raise ValueError("q must be positive")
        if num_hashes < 0:
            raise ValueError("num_hashes must be non-negative")
        self.q = q
        self.num_hashes = num_hashes
        self.seed = seed
        self._keys = [
            hashlib.blake2b(
                f"repro-minhash-{seed}-{i}".encode(), digest_size=8
            ).digest()
            for i in range(num_hashes)
        ]
        # Per-instance memo: token -> signature.  Tokens repeat massively
        # across reference tuples ('seattle', 'wa', ...), so this is the
        # difference between O(tokens) and O(distinct tokens) hashing work.
        # Queries store only reference tokens (see ``signature``), so the
        # memo grows with the vocabulary, not with the queries served.
        self._memo = BoundedMemo()

    def _hash(self, key: bytes, gram: str) -> int:
        digest = hashlib.blake2b(
            gram.encode("utf-8"), key=key, digest_size=8
        ).digest()
        return int.from_bytes(digest, "little")

    def qgrams(self, token: str) -> tuple[str, ...]:
        """All q-grams of ``token`` in positional order (with duplicates)."""
        if len(token) <= self.q:
            return (token,)
        q = self.q
        return tuple(token[i : i + q] for i in range(len(token) - q + 1))

    def signature(self, token: str, memo: bool = True) -> tuple[str, ...]:
        """The min-hash signature ``mh(token)``.

        Returns a tuple of ``num_hashes`` q-grams (coordinate i is the
        argmin under hash function i), or ``(token,)`` for short tokens.
        An empty token has an empty signature.  A signature computed with
        ``memo=False`` is not remembered (one already memoized is still
        read): queries pass it for tokens no reference tuple holds.
        """
        if not token:
            return ()
        cached = self._memo.get(token)
        if cached is not None:
            return cached
        if len(token) <= self.q or self.num_hashes == 0:
            signature: tuple[str, ...] = (token,)
        else:
            grams = sorted(set(self.qgrams(token)))
            signature = tuple(
                min(grams, key=lambda g, k=key: self._hash(k, g))
                for key in self._keys
            )
        if memo:
            self._memo.store(token, signature)
        return signature

    def signature_length(self, token: str) -> int:
        """``|mh(token)|`` — the divisor in per-q-gram weight assignment."""
        return len(self.signature(token))


def required_signature_size(delta: float, epsilon: float) -> int:
    """The H of Lemma 4.1 / Theorems 1–2: ``H ≥ 2 δ⁻² ln ε⁻¹``.

    With this many min-hash coordinates, ``P(fmsapx < (1 − δ) · fms) ≤ ε``
    and the retrieval algorithms return the true top-K with probability at
    least ``1 − ε``.  The paper's experimental H ∈ {1, 2, 3} sit far below
    these worst-case sizes — the evaluation shows small signatures suffice
    in practice, which is exactly the gap this helper makes visible.
    """
    import math

    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    return math.ceil(2.0 / (delta**2) * math.log(1.0 / epsilon))
