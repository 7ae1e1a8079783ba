"""Snippet-level answer extraction (the trainless QA baseline).

The document is cut into overlapping two-line snippets and each snippet is
scored against the query with the same max/mean attention score used for
retrieval, computed by the same two functions: retriever.similarities over
the document's own rows, and retriever.segment_maxima over its lines.  The
best snippet's line span is the predicted answer and its score is the
confidence.
"""

from __future__ import annotations

import numpy as np

from .corpus import AnswerPrediction, Document
from .retriever import segment_maxima, similarities


def answer_attention(document: Document, query: list[np.ndarray]) -> AnswerPrediction:
    """Return the best-scoring snippet: lines (i, i + 1), or (0, 0) for a
    one-line document; ties go to the earlier start line."""
    rows = document.rows
    sims = similarities(rows.T, np.bitwise_count(rows).sum(axis=1), query)  # J x tokens
    per_line = segment_maxima(sims, document.line_starts)  # lines x J
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
