"""The benchmark's checks must reject wrong outputs.

Run from the repository root:  python3 -m pytest -q phocbench
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import reference

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

DOC_LINES = [(0, 0, 3), (1, 4, 7), (2, 8, 11), (3, 12, 15)]


def _scores() -> dict[str, float]:
    """Reference scores of twelve documents for a two-word query."""
    rng = np.random.default_rng(0)
    words = [reference.phoc_bits(w) for w in ("quiz", "oxide", "quartz", "oxen", "jazz", "fjord", "waxed", "ozone")]
    docs = {f"d{i:02d}": [words[j] for j in rng.choice(len(words), size=3, replace=False)] for i in range(12)}
    return {doc_id: reference.doc_score(words[:2], ws) for doc_id, ws in docs.items()}


def _top(scores: dict[str, float], k: int) -> list[tuple[str, float]]:
    return sorted(scores.items(), key=lambda t: (-t[1], t[0]))[:k]


def test_phoc_bits_known_word():
    # "ab": 'a' fills the first half of the line and 'b' the second.  A
    # region gets a character when at least half of that character lies in
    # it: the middle region of level 3 gets neither, and a level-5 region
    # is narrower than half a character, so that level stays empty.
    cells = {
        2: [(0, "a"), (1, "b")],
        3: [(0, "a"), (2, "b")],
        4: [(0, "a"), (1, "a"), (2, "b"), (3, "b")],
        5: [],
    }
    n = len(reference.ALPHABET)
    offsets = {2: 0, 3: 2 * n, 4: 5 * n, 5: 9 * n}
    expected = sum(
        1 << (offsets[level] + region * n + reference.ALPHABET.index(c))
        for level, pairs in cells.items()
        for region, c in pairs
    )
    assert reference.phoc_bits("ab") == expected


def test_phoc_bits_agree_with_program():
    from phocqa.phoc import phoc_encode

    rng = np.random.default_rng(1)
    for _ in range(300):
        word = "".join(rng.choice(list(reference.ALPHABET), size=int(rng.integers(1, 13))))
        held = sum(1 << i for i, v in enumerate(phoc_encode(word)) if v == 1.0)
        assert held == reference.phoc_bits(word), word


def test_doc_score_from_counts():
    q = reference.phoc_bits("quiz")
    assert reference.doc_score([q], [q]) == 1.0
    w = reference.phoc_bits("quartz")
    shared = (q & w).bit_count()
    assert reference.doc_score([q], [w, 0]) == shared / math.sqrt(q.bit_count() * w.bit_count())


def test_ranking_accepts_the_reference_order():
    scores = _scores()
    assert len(set(scores.values())) > 6
    assert reference.check_ranking(_top(scores, 5), scores, 5) == []


def test_ranking_rejects_a_swapped_rank():
    scores = _scores()
    top = _top(scores, 5)
    i = next(i for i in range(4) if top[i][1] != top[i + 1][1])
    swapped = top[:i] + [top[i + 1], top[i]] + top[i + 2 :]
    assert reference.check_ranking(swapped, scores, 5)


def test_ranking_rejects_a_score_off_by_1e9():
    scores = _scores()
    top = _top(scores, 5)
    top[2] = (top[2][0], top[2][1] + 1e-9)
    assert reference.check_ranking(top, scores, 5)


def test_ranking_rejects_a_missed_document():
    scores = _scores()
    ranked = _top(scores, len(scores))
    assert reference.check_ranking(ranked[:4] + [ranked[6]], scores, 5)


def test_ranking_rejects_a_wrong_tie_order():
    scores = {"a": 0.5, "b": 0.5, "c": 0.1}
    assert reference.check_ranking([("a", 0.5), ("b", 0.5)], scores, 2) == []
    assert reference.check_ranking([("b", 0.5), ("a", 0.5)], scores, 2)


def test_dis_by_set_arithmetic():
    # gold words 5..6 sit on line 1; LB = lines 0..2
    assert reference.dis(DOC_LINES, (5, 6), (0, 1)) == 1.0
    assert reference.dis(DOC_LINES, (5, 6), (1, 1)) == 1.0
    assert reference.dis(DOC_LINES, (5, 6), (2, 3)) == 0.0
    assert reference.dis(DOC_LINES, (5, 6), (1, 3)) == pytest.approx(8 / 12)
    assert reference.check_dis(8 / 12, reference.dis(DOC_LINES, (5, 6), (1, 3))) == []
    assert reference.check_dis(8 / 12 + 1e-9, reference.dis(DOC_LINES, (5, 6), (1, 3)))


def test_span_accepts_the_best_span():
    start = [0.1, 2.0, 0.3, 0.0]
    end = [0.0, 0.5, 1.0, 1.5]
    # a band of 2 rules out (1, 3), the best pair of a band of 3
    assert reference.best_span(start, end, 3) == (1, 3, 3.5)
    assert reference.best_span(start, end, 2) == (1, 2, 3.0)
    assert reference.check_span((1, 2, 3.0), start, end, 2) == []


def test_span_rejects_a_shifted_span():
    start = [0.1, 2.0, 0.3, 0.0]
    end = [0.0, 0.5, 1.0, 1.5]
    assert reference.check_span((2, 3, 1.8), start, end, 2)
    assert reference.check_span((1, 2, 3.0 + 1e-9), start, end, 2)


def test_span_ties_go_to_the_first_pair():
    assert reference.best_span([1.0, 1.0], [1.0, 1.0], 2) == (0, 0, 2.0)
    assert reference.check_span((1, 1, 2.0), [1.0, 1.0], [1.0, 1.0], 2)


def test_choice_follows_the_tie_rule():
    candidates = [("d3", 0.5), ("d1", 0.9), ("d2", 0.9)]
    assert reference.check_choice(candidates, "d1") == []
    assert reference.check_choice(candidates, "d2")
    assert reference.check_choice(candidates, "d3")


def test_gradient_check_accepts_the_true_gradient_and_rejects_a_perturbed_one():
    x = np.array([0.3, -1.2, 2.0])

    def loss() -> float:
        return float(np.sum(np.sin(x) * x**2))

    exact = np.cos(x) * x**2 + 2 * x * np.sin(x)
    for i in range(x.size):
        numeric = reference.central_difference(loss, x, i, 1e-5)
        assert reference.check_gradient(float(exact[i]), numeric) == []
        assert reference.check_gradient(float(exact[i]) * (1 + 1e-3), numeric)
    assert np.array_equal(x, [0.3, -1.2, 2.0])
