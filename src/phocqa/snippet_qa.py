"""Snippet-level answer extraction (the trainless QA baseline).

The document is cut into overlapping two-line snippets and each snippet is
scored against the query with the same max/mean attention score used for
retrieval.  The best snippet's line span is the predicted answer and its
score is the confidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Document, document_index
from .retriever import segment_maxima


@dataclass(frozen=True)
class Snippet:
    start_line: int
    end_line: int
    word_ids: tuple[int, ...]


@dataclass(frozen=True)
class AnswerPrediction:
    doc_id: str
    start_line: int
    end_line: int
    confidence: float
    # word-granularity span when the predictor works at word level
    start_word: int | None = None
    end_word: int | None = None


def make_snippets(document: Document) -> list[Snippet]:
    """Sliding window of two consecutive lines, stride 1; one-line documents
    yield the degenerate snippet (0, 0)."""
    n = document.num_lines
    if n == 1:
        return [Snippet(0, 0, tuple(sorted(document.word_ids_of_lines(0, 0))))]
    return [
        Snippet(i, i + 1, tuple(sorted(document.word_ids_of_lines(i, i + 1))))
        for i in range(n - 1)
    ]


def answer_attention(document: Document, query: list[np.ndarray]) -> AnswerPrediction:
    """Return the best-scoring snippet; ties go to the earlier start line."""
    starts = np.array([ln.start_word for ln in document.lines], dtype=np.intp)
    per_line = segment_maxima(document_index(document), query, starts)  # lines x J
    two_lines = len(per_line) > 1
    # a two-line snippet's maxima are those of its lines combined
    per_snippet = np.maximum(per_line[:-1], per_line[1:]) if two_lines else per_line
    scores = per_snippet.mean(axis=1)
    best = int(np.argmax(scores))
    return AnswerPrediction(
        doc_id=document.doc_id,
        start_line=best,
        end_line=best + int(two_lines),
        confidence=float(scores[best]),
    )
