"""Attention-based document retrieval.

A document's relevance to a query is the mean over query PHOCs of the
maximum cosine similarity against any word PHOC in the document.  Two
functions compute it, and snippet_qa scores snippets with the same two:
similarities is one (J, V) pass of each query row against packed columns,
through AND and popcount, and segment_maxima reduces the per-column
similarities to the maxima of each segment of columns.  rank_collection
runs the pass over the collection's packed index (corpus.PackedIndex),
gathers it per token and reduces it per document.  Ties are broken by
doc_id so the ordering is deterministic.

The index stores its types column-major, as (PACKED_WORDS, V) uint64, so
a query row's dots are PACKED_WORDS passes of AND, popcount and add over
contiguous V-length rows.  They are summed in uint16: a dot can reach 504
set bits, which uint8 would wrap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Collection, pack_phocs


@dataclass(frozen=True)
class RetrievalResult:
    doc_id: str
    score: float
    rank: int  # 1-based


def similarities(types: np.ndarray, counts: np.ndarray, query: list[np.ndarray]) -> np.ndarray:
    """The (J, V) cosine similarity of each query vector with each packed
    column of `types`, a (PACKED_WORDS, V) uint64 array whose column v has
    counts[v] set bits."""
    if not query:
        raise ValueError("empty query")
    qrows, qcounts = pack_phocs(query)
    # The dots are exact integers whatever the word order, which keeps the
    # scores bit-identical under word permutation.  One square root of the
    # product of the bit counts, exact in float64 since it is at most 504²,
    # scores an exact match exactly 1.0 (sqrt(n) * sqrt(n) differs from n for
    # 251 of the 504 possible n).  A zero count has a zero dot, so its cosine
    # stays 0.
    masked = np.empty_like(types)  # reused by every query row
    dots = np.empty((len(qrows), types.shape[1]), dtype=np.uint16)  # (J, V)
    for q, row in zip(qrows, dots):
        np.bitwise_and(types, q[:, None], out=masked)
        np.bitwise_count(masked).sum(axis=0, dtype=np.uint16, out=row)
    # (J, V), not (V, J): every pass below then runs over V-length rows
    sims = np.multiply.outer(qcounts, counts, dtype=np.float64)
    np.maximum(sims, 1.0, out=sims)
    np.sqrt(sims, out=sims)
    return np.divide(dots, sims, out=sims)


def segment_maxima(sims: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The maximum of each row of the (J, N) `sims` over each column
    segment; segment s runs from starts[s] up to the next start.  Returns an
    (S, J) C-contiguous array, so a mean over axis 1 sums each row in the
    same order as np.mean of a 1-D array."""
    return np.ascontiguousarray(np.maximum.reduceat(sims, starts, axis=1).T)


def rank_collection(collection: Collection, query: list[np.ndarray], k: int) -> list[RetrievalResult]:
    """Score every document and return the top min(k, |collection|) results."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(collection) == 0:
        raise ValueError("empty collection")
    index = collection.index
    sims = np.take(similarities(index.types, index.counts, query), index.token_type, axis=1)
    scores = segment_maxima(sims, index.offsets).mean(axis=1)
    # a stable sort keeps the doc_id order of the index among equal scores
    top = np.argsort(-scores, kind="stable")[:k]
    return [
        RetrievalResult(doc_id=index.doc_ids[i], score=float(scores[i]), rank=r + 1)
        for r, i in enumerate(top)
    ]
