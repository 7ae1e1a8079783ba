"""Synthetic collections and QA pairs with analytically known ground truth.

Documents are random filler words; each question plants a few globally
unique marker words into its gold answer span and asks for them.  Because a
marker occurs in exactly one document, exact-PHOC retrieval must rank the
gold document first, which gives the test suite a known-answer corpus
without any document images.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .corpus import Collection, Document, Question, phoc_table, query_tokens
from .stopwords import NORMALIZED_STOPWORDS

_LETTERS = np.array(list(string.ascii_lowercase))


@dataclass(frozen=True)
class GeneratorSpec:
    num_documents: int = 100
    lines_per_document: tuple[int, int] = (5, 10)
    words_per_line: tuple[int, int] = (5, 10)
    vocab_size: int = 500
    num_questions: int = 50
    marker_words: tuple[int, int] = (1, 3)  # markers planted per question
    seed: int = 42

    def __post_init__(self):
        for lo, hi in (self.lines_per_document, self.words_per_line, self.marker_words):
            if lo < 1 or hi < lo:
                raise ValueError("ranges must be positive and ordered")
        if self.num_documents < 1 or self.vocab_size < 1:
            raise ValueError("num_documents and vocab_size must be positive")
        if self.num_questions < 0:
            raise ValueError(f"num_questions must be >= 0, got {self.num_questions}")


def _make_vocabulary(size: int, rng: np.random.Generator) -> list[str]:
    vocab: list[str] = []
    seen: set[str] = set()
    while len(vocab) < size:
        n = int(rng.integers(4, 9))
        w = "".join(rng.choice(_LETTERS, size=n))
        if w in seen or w in NORMALIZED_STOPWORDS:
            continue
        seen.add(w)
        vocab.append(w)
    return vocab


def generate(spec: GeneratorSpec) -> tuple[Collection, list[Question]]:
    """Build (Collection, Questions) deterministically from the spec's seed."""
    rng = np.random.default_rng(spec.seed)
    markers_needed = spec.num_questions * spec.marker_words[1]
    if spec.vocab_size <= markers_needed:
        raise ValueError(
            f"vocab_size {spec.vocab_size} too small for {markers_needed} unique markers"
        )
    vocab = _make_vocabulary(spec.vocab_size, rng)
    marker_pool = vocab[:markers_needed]
    filler = vocab[markers_needed:]
    next_marker = 0

    # mutable word grids first, documents built after all markers are planted
    doc_ids = [f"doc_{i:04d}" for i in range(spec.num_documents)]
    grids: dict[str, list[str]] = {}
    word_lines: dict[str, list[int]] = {}  # the line of each word
    for did in doc_ids:
        n_lines = int(rng.integers(spec.lines_per_document[0], spec.lines_per_document[1] + 1))
        words: list[str] = []
        lines: list[int] = []
        for line in range(n_lines):
            n_words = int(rng.integers(spec.words_per_line[0], spec.words_per_line[1] + 1))
            words.extend(rng.choice(filler, size=n_words).tolist())  # str, not numpy.str_
            lines.extend([line] * n_words)
        grids[did] = words
        word_lines[did] = lines

    questions_raw = []
    planted: dict[str, set[int]] = {did: set() for did in doc_ids}
    for qi in range(spec.num_questions):
        m = int(rng.integers(spec.marker_words[0], spec.marker_words[1] + 1))
        markers = marker_pool[next_marker : next_marker + m]
        next_marker += m
        # sample a gold document that still has room for a contiguous span
        order = rng.permutation(len(doc_ids))
        gold_id = None
        for di in order:
            did = doc_ids[di]
            candidates = [
                s
                for s in range(len(grids[did]) - m + 1)
                if not set(range(s, s + m)) & planted[did]
            ]
            if candidates:
                gold_id = did
                start = candidates[int(rng.integers(len(candidates)))]
                break
        if gold_id is None:
            raise ValueError("collection too small to place all question markers")
        words = grids[gold_id]
        planted[gold_id].update(range(start, start + m))
        for offset, marker in enumerate(markers):
            words[start + offset] = marker
        questions_raw.append((f"q_{qi:04d}", markers, gold_id, (start, start + m - 1)))

    rows: dict[str, int] = {}  # word -> its row of the shared table, in first-seen order
    token_rows = {did: [rows.setdefault(t, len(rows)) for t in grids[did]] for did in doc_ids}
    table = phoc_table(rows)
    documents = {}
    for did in doc_ids:
        lines = np.array(word_lines[did], dtype=np.intp)
        documents[did] = Document(did, tuple(grids[did]), lines, table, np.array(token_rows[did], dtype=np.intp))
    collection = Collection(documents)

    questions = []
    for qid, markers, gold_id, span in questions_raw:
        text = "what is the " + " ".join(markers)
        doc = collection[gold_id]
        questions.append(
            Question(
                question_id=qid,
                text=text,
                tokens=tuple(query_tokens(text)),
                gold_doc_id=gold_id,
                gold_word_span=span,
                gold_line_span=(doc.line_of_word(span[0]), doc.line_of_word(span[1])),
            )
        )
    return collection, questions
