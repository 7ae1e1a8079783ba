from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from phocqa.corpus import Collection, Document, Line, Word, pack_phoc
from phocqa.phoc import phoc_encode

ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


def random_word(rng: np.random.Generator, min_len: int = 1, max_len: int = 12) -> str:
    n = int(rng.integers(min_len, max_len + 1))
    return "".join(ALPHABET[i] for i in rng.integers(0, len(ALPHABET), size=n))


def make_document(doc_id: str, lines_of_words: list[list[str]]) -> Document:
    """Build a validated Document of packed words from a nested list of word strings."""
    words = []
    lines = []
    idx = 0
    for li, line_words in enumerate(lines_of_words):
        start = idx
        for w in line_words:
            words.append(Word(idx, li, w, pack_phoc(phoc_encode(w))))
            idx += 1
        lines.append(Line(li, start, idx - 1))
    return Document(doc_id, tuple(words), tuple(lines))


def with_bit_set(word: Word, bit: int) -> Word:
    """`word` with bit `bit` of its packed row set; bits 504-511 are padding."""
    row = word.packed.copy()
    row.view(np.uint8)[bit // 8] |= np.uint8(1 << bit % 8)
    return replace(word, packed=row)


def make_collection(docs: dict[str, list[list[str]]]) -> Collection:
    return Collection({k: make_document(k, v) for k, v in docs.items()})


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
