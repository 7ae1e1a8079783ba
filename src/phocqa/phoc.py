"""Pyramidal Histogram of Characters (PHOC) encoding.

Words are embedded as 504-dimensional attribute vectors over the alphabet
a-z0-9 at pyramid levels 2, 3, 4 and 5.  Text strings and (simulated)
word-image predictions share this space, so similarity between a query
token and a document word is just cosine similarity between their vectors
(computed on packed bits by retriever.similarities).
"""

from __future__ import annotations

from functools import cache

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


@cache
def _slots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The bits an n-character word sets: (positions, offsets), read-only,
    where character `positions[j]` of the word sets bit offsets[j] plus its
    alphabet index.  Character i occupies the interval [i/n, (i+1)/n], and
    the bit for (level, region) is set iff overlap / width >= 0.5 in
    float64, as computed below, where overlap is that of the character
    interval with the region [r/L, (r+1)/L]."""
    positions, offsets = [], []
    for i in range(n):
        lo, hi = i / n, (i + 1) / n
        width = hi - lo
        for L in LEVELS:
            for r in range(L):
                overlap = min(hi, (r + 1) / L) - max(lo, r / L)
                if overlap / width >= 0.5:
                    positions.append(i)
                    offsets.append(_LEVEL_OFFSET[L] + r * len(ALPHABET))
    slots = np.array(positions, dtype=np.intp), np.array(offsets, dtype=np.intp)
    for a in slots:
        a.flags.writeable = False
    return slots


def phoc_encode(word: str) -> np.ndarray:
    """Encode a normalized word as a binary PHOC vector of length 504.

    The bits depend on the word's length only through _slots(len(word)),
    computed once per length, so an encoding is one scatter.  An exact 50%
    tie in _slots's float test falls the way the rounding does: 20 of the
    118 ties in words of up to 40 characters (at lengths 3, 6, 7, 11, 14,
    19, 22, 27, 29, 35, 38 and 39) leave their bit clear.  The exact rule
    waits for the ROADMAP item on an exact PHOC encoder, because
    phocbench/reference.py follows this float rule.
    """
    v = np.zeros(PHOC_DIM, dtype=np.float64)
    try:
        chars = np.fromiter(map(CHAR_INDEX.__getitem__, word), dtype=np.intp, count=len(word))
    except KeyError as e:
        raise ValueError(f"character {e.args[0]!r} outside alphabet; normalize the token first") from None
    positions, offsets = _slots(len(word))
    v[offsets + chars[positions]] = 1.0
    return v
