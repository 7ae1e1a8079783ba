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

The index stores its types byte-sliced, as (64, V) uint8 planes: row k
holds byte k of every type, so one query byte meets every type in one pass
over a contiguous V-byte row.  A dot is the sum over the 64 byte positions
of popcount(query byte & type byte).  An input of at most BLOCK columns,
such as a document's own rows or a clean collection's types, is scored
with one broadcast AND over all query rows and all 64 planes, one popcount
and one sum.  A wider input loops over each query row's nonzero bytes,
about a third of them for a real word, and skips the planes a zero byte
would add nothing from; each pass ANDs, popcounts and adds into the row
through one V-byte scratch.  A dot is at most its query row's bit count,
so the dots are uint8 unless a query row has more than 255 set bits, and
uint16 then.  A column's cosine denominator depends only on its bit
count, so it is gathered from a (J, MAX_COUNT + 1) table of
sqrt(max(qcount * count, 1)) instead of being computed V times per row.

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
BLOCK = 4096  # the widest input scored with one broadcast: its (64, BLOCK) AND temporary is 256 KB per query row


def similarities(planes: np.ndarray, counts: np.ndarray, query: list[np.ndarray]) -> np.ndarray:
    """The (J, V) cosine similarity of each query vector with each packed
    column of `planes`, a (64, V) uint8 array whose row k holds byte k of
    every column and whose column v has counts[v] set bits.  An input of at
    most BLOCK columns is scored with one broadcast AND over all query rows;
    a wider one, plane by plane over each query row's nonzero bytes.  The
    denominators and the division are one full-width pass after the dots."""
    if not query:
        raise ValueError("empty query")
    qrows, qcounts = pack_phocs(query)
    qbytes = qrows.view(np.uint8)  # (J, 64): byte k of a row meets plane k
    # The dots are exact integers whatever the word order or the path, which
    # keeps the scores bit-identical under word permutation.  A dot is at most
    # its query row's bit count, so uint8 holds it unless a row has more than
    # 255 set bits.  One square root of the product of the bit counts, exact
    # in float64 since it is at most 504², scores an exact match exactly 1.0
    # (sqrt(n) * sqrt(n) differs from n for 251 of the 504 possible n).  A zero
    # count has a zero dot, so its cosine stays 0.
    dtype = np.uint8 if qcounts.max() <= 255 else np.uint16
    width = planes.shape[1]
    if width <= BLOCK:
        masked = np.bitwise_and(planes, qbytes[:, :, None])  # (J, 64, V)
        dots = np.bitwise_count(masked, out=masked).sum(axis=1, dtype=dtype)
    else:
        # about two thirds of a query row's bytes are zero and add nothing
        dots = np.zeros((len(qrows), width), dtype=dtype)
        scratch = np.empty(width, dtype=np.uint8)
        for q, row in zip(qbytes, dots):
            for k in np.flatnonzero(q):
                np.bitwise_and(planes[k], q[k], out=scratch)
                np.add(row, np.bitwise_count(scratch, out=scratch), out=row)
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
    k = min(k, len(negated))
    kth = np.partition(negated, k - 1)[k - 1]
    kept = np.flatnonzero(negated <= kth)  # k or more, ties at the k-th included
    return kept[np.argsort(negated[kept], kind="stable")[:k]]


def rank_collection(collection: Collection, query: list[np.ndarray], k: int) -> list[RetrievalResult]:
    """Score every document and return the top min(k, |collection|) results."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(collection) == 0:
        raise ValueError("empty collection")
    index = collection.index
    sims = similarities(index.planes, index.counts, query)
    if index.token_type is not None:
        sims = np.take(sims, index.token_type, axis=1)
    scores = segment_maxima(sims, index.offsets).mean(axis=1)
    return [
        RetrievalResult(doc_id=index.doc_ids[i], score=float(scores[i]), rank=r + 1)
        for r, i in enumerate(top_k(scores, k))
    ]
