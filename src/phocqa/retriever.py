"""Attention-based document retrieval.

A document's relevance to a query is the mean over query PHOCs of the
maximum cosine similarity against any word PHOC in the document.  Two
functions compute it, and snippet_qa scores snippets with the same two:
similarities is one (J, V) pass of each query row against packed columns,
through AND and popcount, and segment_maxima reduces the per-column
similarities to the maxima of each segment of columns.  rank_collection
runs the pass over the collection's packed index (corpus.PackedIndex),
gathers it per token unless every token is its own type, and reduces it
per document.  Ties are broken by doc_id so the ordering is deterministic.

The index stores its types column-major, as (PACKED_WORDS, V) uint64, so
a query row's dots are PACKED_WORDS passes of AND, popcount and add over
contiguous V-length rows.  They are summed in uint16: a dot can reach 504
set bits, which uint8 would wrap.  A column's cosine denominator depends
only on its bit count, so it is gathered from a (J, MAX_COUNT + 1) table
of sqrt(max(qcount * count, 1)) instead of being computed V times per row.

The top k are selected by partition: every document that scores at least
the k-th best score is kept, in doc_id order, and only those are sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PACKED_WORDS, Collection, pack_phocs


@dataclass(frozen=True)
class RetrievalResult:
    doc_id: str
    score: float
    rank: int  # 1-based


MAX_COUNT = 64 * PACKED_WORDS  # the most set bits a packed row can hold


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
    bits = np.empty(types.shape, dtype=np.uint8)
    dots = np.empty((len(qrows), types.shape[1]), dtype=np.uint16)  # (J, V)
    for q, row in zip(qrows, dots):
        np.bitwise_and(types, q[:, None], out=masked)
        np.bitwise_count(masked, out=bits).sum(axis=0, dtype=np.uint16, out=row)
    del masked, bits  # freed before the (J, V) float64 result is allocated
    # (J, V), not (V, J): every pass below then runs over V-length rows
    norms = np.multiply.outer(qcounts, np.arange(MAX_COUNT + 1), dtype=np.float64)
    np.sqrt(np.maximum(norms, 1.0, out=norms), out=norms)
    # np.take, not norms[:, counts]: the fancy index is several times slower
    sims = np.take(norms, counts.astype(np.intp, copy=False), axis=1)
    return np.divide(dots, sims, out=sims)


def segment_maxima(sims: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The maximum of each row of the (J, N) `sims` over each column
    segment; segment s runs from starts[s] up to the next start.  Returns an
    (S, J) C-contiguous array, so a mean over axis 1 sums each row in the
    same order as np.mean of a 1-D array."""
    return np.ascontiguousarray(np.maximum.reduceat(sims, starts, axis=1).T)


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The indices of the k highest scores, best first, equal scores in
    index order: the first k of a stable argsort of -scores."""
    negated = -scores
    if k < len(negated):
        kth = np.partition(negated, k - 1)[k - 1]
        kept = np.flatnonzero(negated <= kth)  # k or more, ties at the k-th included
        return kept[np.argsort(negated[kept], kind="stable")[:k]]
    return np.argsort(negated, kind="stable")


def rank_collection(collection: Collection, query: list[np.ndarray], k: int) -> list[RetrievalResult]:
    """Score every document and return the top min(k, |collection|) results."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(collection) == 0:
        raise ValueError("empty collection")
    index = collection.index
    sims = similarities(index.types, index.counts, query)
    if index.token_type is not None:
        sims = np.take(sims, index.token_type, axis=1)
    scores = segment_maxima(sims, index.offsets).mean(axis=1)
    return [
        RetrievalResult(doc_id=index.doc_ids[i], score=float(scores[i]), rank=r + 1)
        for r, i in enumerate(top_k(scores, k))
    ]
