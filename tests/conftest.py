from __future__ import annotations

import io
import math

import numpy as np
import pytest

from phocqa.corpus import Collection, Document, PackedIndex, phoc_table
from phocqa.neural import Tensor, linear, span_loss
from phocqa.retriever import rank_collection, segment_maxima, similarities

ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


def random_word(rng: np.random.Generator, min_len: int = 1, max_len: int = 12) -> str:
    n = int(rng.integers(min_len, max_len + 1))
    return "".join(ALPHABET[i] for i in rng.integers(0, len(ALPHABET), size=n))


def make_document(doc_id: str, lines_of_words: list[list[str]]) -> Document:
    """Build a validated Document, one table row per word, from a nested list of word strings."""
    words = [w for line_words in lines_of_words for w in line_words]
    word_lines = np.array([li for li, line_words in enumerate(lines_of_words) for _ in line_words], dtype=np.intp)
    return Document(doc_id, tuple(words), word_lines, phoc_table(words), np.arange(len(words)))


def rows_with_bit_set(document: Document, word: int, bit: int) -> np.ndarray:
    """A fresh copy of `document`'s rows, one per token, with bit `bit` of
    word `word` set; bits 504-511 are padding."""
    rows = document.rows
    rows.view(np.uint8)[word, bit // 8] |= np.uint8(1 << bit % 8)
    return rows


def draw_lstm(input_dim: int, hidden: int, rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    """A trainable LSTM (W, b) pair, W of shape (4*hidden, input_dim+hidden),
    drawn uniformly from +-1/sqrt(input_dim + hidden), W first, as BidafModel
    draws its own."""
    bound = 1.0 / math.sqrt(input_dim + hidden)
    W = rng.uniform(-bound, bound, size=(4 * hidden, input_dim + hidden))
    b = rng.uniform(-bound, bound, size=(4 * hidden,))
    return Tensor(W, requires_grad=True), Tensor(b, requires_grad=True)


def draw_blstm(input_dim: int, hidden: int, rng: np.random.Generator):
    """The forward and backward (W, b) pairs of a BLSTM, forward drawn first."""
    return draw_lstm(input_dim, hidden, rng), draw_lstm(input_dim, hidden, rng)


def draw_heads(dim: int, rng: np.random.Generator, requires_grad: bool = True) -> dict[str, Tensor]:
    """The weights and scalar biases of a start and an end linear head over
    `dim` features, drawn from a standard normal."""
    return {
        name: Tensor(rng.standard_normal(shape), requires_grad=requires_grad)
        for name, shape in (("w_start", (dim,)), ("b_start", ()), ("w_end", (dim,)), ("b_end", ()))
    }


def heads_loss(x: Tensor, heads: dict[str, Tensor], gold: tuple[int, int]) -> Tensor:
    """The span loss of the two linear heads of draw_heads over the rows of x."""
    return span_loss(linear(x, heads["w_start"], heads["b_start"]), linear(x, heads["w_end"], heads["b_end"]), gold)


def tape_nodes(out: Tensor) -> int:
    """Number of distinct tensors reachable from `out` through its parents."""
    seen, todo = set(), [out]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


def npy_bytes(array: np.ndarray) -> bytes:
    """The bytes of an .npy file holding `array`."""
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def make_collection(docs: dict[str, list[list[str]]]) -> Collection:
    return Collection({k: make_document(k, v) for k, v in docs.items()})


def score_document(document: Document, query: list[np.ndarray]) -> float:
    """The retrieval score of `document` on its own: rank_collection over a
    one-document Collection."""
    return rank_collection(Collection({document.doc_id: document}), query, k=1)[0].score


def index_maxima(index: PackedIndex, query: list[np.ndarray], starts: np.ndarray) -> np.ndarray:
    """The (S, J) segment maxima of `query` over `index`'s tokens, as
    rank_collection computes them: the similarity of every type, gathered
    per token unless the index's token_type is None (the identity)."""
    sims = similarities(index.types, index.counts, query)
    if index.token_type is not None:
        sims = np.take(sims, index.token_type, axis=1)
    return segment_maxima(sims, starts)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
