"""Pyramidal Histogram of Characters (PHOC) encoding.

Words are embedded as 504-dimensional attribute vectors over the alphabet
a-z0-9 at pyramid levels 2, 3, 4 and 5.  Text strings and (simulated)
word-image predictions share this space, so similarity between a query
token and a document word is just cosine similarity between their vectors
(computed on packed bits by retriever.similarities).
"""

from __future__ import annotations

import numpy as np

ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
CHAR_INDEX = {c: i for i, c in enumerate(ALPHABET)}
LEVELS = (2, 3, 4, 5)
PHOC_DIM = sum(LEVELS) * len(ALPHABET)  # 504

_LEVEL_OFFSET = {}
_off = 0
for _L in LEVELS:
    _LEVEL_OFFSET[_L] = _off
    _off += _L * len(ALPHABET)


def normalize_token(raw: str) -> str:
    """Lowercase and drop every character outside [a-z0-9]; may return ''."""
    return "".join(c for c in raw.lower() if c in CHAR_INDEX)


def phoc_encode(word: str) -> np.ndarray:
    """Encode a normalized word as a binary PHOC vector of length 504.

    Character i of an n-character word occupies the interval [i/n, (i+1)/n].
    The bit for (level, region, char) is set iff overlap / width >= 0.5 in
    float64, as computed below, where overlap is that of the character
    interval with the region [r/L, (r+1)/L].  An exact 50% tie falls the way
    the rounding does: 20 of the 118 ties in words of up to 40 characters (at
    lengths 3, 6, 7, 11, 14, 19, 22, 27, 29, 35, 38 and 39) leave their bit
    clear.  The exact rule waits for the ROADMAP item on an exact,
    table-driven PHOC encoder, because phocbench/reference.py follows this
    float rule.
    """
    v = np.zeros(PHOC_DIM, dtype=np.float64)
    n = len(word)
    if n == 0:
        return v
    for i, c in enumerate(word):
        ci = CHAR_INDEX.get(c)
        if ci is None:
            raise ValueError(f"character {c!r} outside alphabet; normalize the token first")
        lo, hi = i / n, (i + 1) / n
        width = hi - lo
        for L in LEVELS:
            for r in range(L):
                overlap = min(hi, (r + 1) / L) - max(lo, r / L)
                if overlap / width >= 0.5:
                    v[_LEVEL_OFFSET[L] + r * len(ALPHABET) + ci] = 1.0
    return v

