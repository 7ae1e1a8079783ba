"""Attention-based document retrieval.

A document's relevance to a query is the mean over query PHOCs of the
maximum cosine similarity against any word PHOC in the document.  The whole
collection is scored in one vectorized pass over its packed index
(corpus.PackedIndex): each query row meets each distinct word vector once,
through AND and popcount, and the per-token similarities are reduced to
per-document maxima.  Ties are broken by doc_id so the ordering is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Collection, Document, PackedIndex, build_index, pack_phocs


@dataclass(frozen=True)
class RetrievalResult:
    doc_id: str
    score: float
    rank: int  # 1-based


def segment_maxima(index: PackedIndex, query: list[np.ndarray], starts: np.ndarray) -> np.ndarray:
    """Max cosine similarity of each query vector over each token segment.

    Segment s holds the index's tokens from starts[s] up to the next start.
    Returns an (S, J) C-contiguous array, so a mean over axis 1 sums each
    row in the same order as np.mean of a 1-D array.
    """
    if not query:
        raise ValueError("empty query")
    qrows, qcounts = pack_phocs(query)
    # The dots are exact integers whatever the word order, which keeps the
    # scores bit-identical under word permutation.  One square root of the
    # integer product of the bit counts scores an exact match exactly 1.0
    # (sqrt(n) * sqrt(n) differs from n for 251 of the 504 possible n).  A
    # zero count has a zero dot, so its cosine stays 0.
    dots = np.stack([np.bitwise_count(index.types & q).sum(axis=1) for q in qrows], axis=1)
    sims = dots / np.sqrt(np.maximum(np.outer(index.counts, qcounts), 1))  # (V, J)
    return np.maximum.reduceat(sims[index.token_type], starts, axis=0)


def doc_score(document: Document, query: list[np.ndarray]) -> float:
    """Mean over query vectors of the max cosine similarity to any document word."""
    index = build_index([document])
    return float(segment_maxima(index, query, index.offsets).mean(axis=1)[0])


def rank_collection(collection: Collection, query: list[np.ndarray], k: int) -> list[RetrievalResult]:
    """Score every document and return the top min(k, |collection|) results."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(collection) == 0:
        raise ValueError("empty collection")
    index = collection.index
    scores = segment_maxima(index, query, index.offsets).mean(axis=1)
    # a stable sort keeps the doc_id order of the index among equal scores
    top = np.argsort(-scores, kind="stable")[:k]
    return [
        RetrievalResult(doc_id=index.doc_ids[i], score=float(scores[i]), rank=r + 1)
        for r, i in enumerate(top)
    ]
