"""Independent brute-force reference implementations used by the tests.

These are written against the definitions directly and deliberately share
no code with the library: occupancy-rule PHOC bits, nested-loop max/mean
document scoring, two-line snippet windows, set-arithmetic DIS, per-word
PHOC bit flips, the unblocked per-tensor ADADELTA update and the
double-loop constrained span argmax.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

ORACLE_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
ORACLE_LEVELS = [2, 3, 4, 5]


def phoc_reference(word: str) -> np.ndarray:
    """Occupancy-rule PHOC: walk level blocks in order and test every
    (region, character) pair against every character occurrence."""
    blocks = []
    n = len(word)
    for level in ORACLE_LEVELS:
        for region in range(level):
            r_lo = region / level
            r_hi = (region + 1) / level
            row = np.zeros(len(ORACLE_ALPHABET))
            for i in range(n):
                c_lo = i / n
                c_hi = (i + 1) / n
                overlap = min(c_hi, r_hi) - max(c_lo, r_lo)
                if overlap >= 0.5 * (c_hi - c_lo):
                    row[ORACLE_ALPHABET.index(word[i])] = 1.0
            blocks.append(row)
    return np.concatenate(blocks)


def cosine_reference(a, b) -> float:
    num = sum(x * y for x, y in zip(a, b))
    na = sum(x * x for x in a) ** 0.5
    nb = sum(y * y for y in b) ** 0.5
    if na == 0.0 or nb == 0.0:
        return 0.0
    return num / (na * nb)


def doc_score_reference(doc_vectors, query_vectors) -> float:
    """Nested-loop Eq.-style max/mean, built on the scalar cosine above."""
    per_query = []
    for q in query_vectors:
        best = max(cosine_reference(q, w) for w in doc_vectors)
        per_query.append(best)
    return sum(per_query) / len(per_query)


class Snippet(NamedTuple):
    start_line: int
    end_line: int
    word_ids: tuple[int, ...]


def make_snippets(word_lines) -> list[Snippet]:
    """The two-line windows of a document whose word i lies on line
    word_lines[i]: lines (i, i + 1) for every i, stride 1, or the single
    window (0, 0) for a one-line document, each with the ids of its words."""
    num_lines = max(word_lines) + 1
    windows = [(0, 0)] if num_lines == 1 else [(i, i + 1) for i in range(num_lines - 1)]
    return [Snippet(s, e, tuple(w for w, line in enumerate(word_lines) if s <= line <= e)) for s, e in windows]


def dis_reference(sb: set, lb: set, ab: set) -> float:
    if not ab:
        return 0.0
    return (len(ab & sb) / len(sb)) * (len(ab & lb) / len(ab))


def corrupt_phoc(v: np.ndarray, flip_rate: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit of a binary PHOC, or of a matrix of PHOC rows,
    independently with probability flip_rate."""
    if not 0.0 <= flip_rate <= 1.0:
        raise ValueError(f"flip_rate {flip_rate} outside [0, 1]")
    if v.shape[-1:] != (len(ORACLE_ALPHABET) * sum(ORACLE_LEVELS),):
        raise ValueError("PHOC vectors must have length 504")
    if not np.all((v == 0.0) | (v == 1.0)):
        raise ValueError("corrupt_phoc expects a binary vector")
    flips = rng.random(v.shape) < flip_rate
    return np.abs(v - flips.astype(np.float64))


def adadelta_reference(params, state) -> None:
    """One unblocked ADADELTA update per parameter tensor, in place, with
    full-size temporaries; `params` maps names to objects with `.values` and
    `.grad` (None counts as zero), `state` holds lr, rho, eps and the eg2 and
    edx2 dicts."""
    one_minus_rho = 1.0 - state.rho
    for name, p in params.items():
        eg2 = state.eg2.setdefault(name, np.zeros_like(p.values))
        edx2 = state.edx2.setdefault(name, np.zeros_like(p.values))
        eg2 *= state.rho
        if p.grad is None:
            edx2 *= state.rho
            continue
        g = p.grad
        g2 = np.multiply(g, g)
        g2 *= one_minus_rho
        eg2 += g2
        dx = np.sqrt((edx2 + state.eps) / (eg2 + state.eps))
        dx *= g
        edx2 *= state.rho
        dx2 = np.multiply(dx, dx)
        dx2 *= one_minus_rho
        edx2 += dx2
        dx *= -state.lr
        p.values += dx


def span_argmax_reference(start_logits, end_logits, max_span: int) -> tuple[int, int, float]:
    """Double loop over s <= e <= s + max_span - 1; the first maximum in
    (s, e) row-major order wins."""
    n = len(start_logits)
    best = (0, 0, -np.inf)
    for s in range(n):
        for e in range(s, min(s + max_span, n)):
            v = start_logits[s] + end_logits[e]
            if v > best[2]:
                best = (s, e, v)
    return best
