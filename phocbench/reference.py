"""Reference computations and output checks for the benchmark.

Nothing here imports phocqa: each function is written from the definition
so that a fault in the program cannot hide in a shared helper.

- PHOC bits from a word's text, kept as a Python int bitset;
- max/mean retrieval scores from integer shared-bit counts;
- DIS by set arithmetic over the line structure of the collection file;
- a brute-force search for the best start/end pair within a band;
- central differences for gradients.

Each check returns a list of error strings; an empty list means the output
passed.
"""

from __future__ import annotations

import math

ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
LEVELS = (2, 3, 4, 5)
DIM = sum(LEVELS) * len(ALPHABET)

SCORE_TOL = 1e-12
GRAD_TOL = 1e-4
# Below this magnitude a gradient is compared absolutely: central differences
# of a double-precision loss carry rounding error of about 1e-11.
GRAD_FLOOR = 1e-6


def normalize(raw: str) -> str:
    return "".join(c for c in raw.lower() if c in ALPHABET)


def phoc_bits(word: str) -> int:
    """PHOC of a normalized word as a bitset; bit i is vector position i.

    Positions run level by level, then region, then character.  A character
    is in a region when the overlap of its interval [i/n, (i+1)/n] with the
    region is at least half the character's width.  The test is made in
    floating point, as the repository's own oracle (tests/oracles.py) makes
    it; exact arithmetic decides some 50% ties the other way (see
    CHANGES.md).
    """
    n = len(word)
    bits = 0
    offset = 0
    for level in LEVELS:
        for region in range(level):
            r_lo, r_hi = region / level, (region + 1) / level
            for i, ch in enumerate(word):
                c_lo, c_hi = i / n, (i + 1) / n
                if min(c_hi, r_hi) - max(c_lo, r_lo) >= 0.5 * (c_hi - c_lo):
                    bits |= 1 << (offset + region * len(ALPHABET) + ALPHABET.index(ch))
        offset += level * len(ALPHABET)
    return bits


def doc_score(query: list[int], words: list[int]) -> float:
    """Mean over query bitsets of the best cosine to any word bitset, each
    cosine computed as shared / sqrt(|q| * |w|) from integer bit counts."""
    sizes = [w.bit_count() for w in words]
    best = []
    for q in query:
        nq = q.bit_count()
        top = 0.0
        for w, nw in zip(words, sizes):
            if nq and nw:
                top = max(top, (q & w).bit_count() / math.sqrt(nq * nw))
        best.append(top)
    return sum(best) / len(best)


def dis(lines: list[tuple[int, int, int]], gold_words: tuple[int, int], predicted_lines: tuple[int, int]) -> float:
    """Double Inclusion Score from the file's (line_index, start_word,
    end_word) triples: SB = gold words, LB = words of the gold lines and one
    line either side, AB = words of the predicted lines."""
    words_of = {li: set(range(s, e + 1)) for li, s, e in lines}
    line_of = {w: li for li, ws in words_of.items() for w in ws}
    sb = set(range(gold_words[0], gold_words[1] + 1))
    first, last = line_of[gold_words[0]], line_of[gold_words[1]]
    lb = set().union(*(words_of.get(li, set()) for li in range(first - 1, last + 2)))
    ab = set().union(*(words_of.get(li, set()) for li in range(predicted_lines[0], predicted_lines[1] + 1)))
    if not ab:
        return 0.0
    return (len(ab & sb) / len(sb)) * (len(ab & lb) / len(ab))


def best_span(start: list[float], end: list[float], max_span: int) -> tuple[int, int, float]:
    """Largest start[s] + end[e] over s <= e < s + max_span; among equal
    values the smallest (s, e)."""
    pairs = [(s, e) for s in range(len(start)) for e in range(len(end)) if 0 <= e - s < max_span]
    top = max(start[s] + end[e] for s, e in pairs)
    s, e = min(p for p in pairs if start[p[0]] + end[p[1]] == top)
    return s, e, top


def central_difference(loss, flat, index: int, eps: float) -> float:
    """(loss(x + eps) - loss(x - eps)) / 2 eps at one coordinate of the
    writable flat array `flat`; the coordinate is restored afterwards."""
    orig = flat[index]
    try:
        flat[index] = orig + eps
        up = loss()
        flat[index] = orig - eps
        down = loss()
    finally:
        flat[index] = orig
    return (up - down) / (2.0 * eps)


# ---------------------------------------------------------------------------
# Checks


def check_ranking(returned: list[tuple[str, float]], reference: dict[str, float], k: int) -> list[str]:
    """Top-k (doc_id, score) pairs against reference scores of every
    document: sizes, scores to SCORE_TOL, order by score then doc_id, and
    no better document left out."""
    errors = []
    if len(returned) != min(k, len(reference)):
        errors.append(f"{len(returned)} results, expected {min(k, len(reference))}")
    for doc_id, score in returned:
        if doc_id not in reference:
            errors.append(f"unknown document {doc_id!r}")
        elif abs(score - reference[doc_id]) > SCORE_TOL:
            errors.append(f"{doc_id}: score {score!r}, reference {reference[doc_id]!r}")
    if errors:
        return errors
    keys = [(-score, doc_id) for doc_id, score in returned]
    if keys != sorted(keys):
        errors.append(f"results not ordered by score then doc_id: {[d for d, _ in returned]}")
    ref = [reference[doc_id] for doc_id, _ in returned]
    for i in range(len(ref) - 1):
        if ref[i] < ref[i + 1] - SCORE_TOL:
            errors.append(f"rank {i + 1} scores below rank {i + 2} in the reference")
    if returned:
        floor = ref[-1]
        chosen = {doc_id for doc_id, _ in returned}
        for doc_id, score in reference.items():
            if doc_id not in chosen and score > floor + SCORE_TOL:
                errors.append(f"{doc_id} (reference {score!r}) beats the last result ({floor!r})")
    return errors


def check_span(predicted: tuple[int, int, float], start: list[float], end: list[float], max_span: int) -> list[str]:
    s, e, top = best_span(start, end, max_span)
    if (predicted[0], predicted[1]) != (s, e) or abs(predicted[2] - top) > SCORE_TOL:
        return [f"span {predicted}, brute force ({s}, {e}, {top!r})"]
    return []


def check_choice(confidences: list[tuple[str, float]], chosen: str) -> list[str]:
    """The chosen document is the first of the candidates, in retrieval
    order, with the largest confidence."""
    if not confidences:
        return ["no candidates"]
    top = max(c for _, c in confidences)
    expected = next(doc_id for doc_id, c in confidences if c == top)
    return [] if chosen == expected else [f"chose {chosen!r}, expected {expected!r}"]


def check_dis(value: float, expected: float) -> list[str]:
    return [] if abs(value - expected) <= SCORE_TOL else [f"DIS {value!r}, reference {expected!r}"]


def check_gradient(analytic: float, numeric: float) -> list[str]:
    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), GRAD_FLOOR)
    return [] if rel <= GRAD_TOL else [f"gradient {analytic!r}, central difference {numeric!r} (rel {rel:.2e})"]
