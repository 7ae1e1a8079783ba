"""Data model and ingestion for word/line-segmented document collections.

A document is an ordered word sequence with line membership; every word
carries the PHOC vector of its transcription.  Recognition noise (the
"predicted PHOC" condition) is simulated by independent Bernoulli bit
flips on the document-side vectors; query vectors stay exact.

For scoring, a collection is held as a packed index: each distinct word
vector once as a 512-bit row of uint64 words, plus a token-to-row map and
per-document offsets.  The packing format is defined here and nowhere else.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .phoc import PHOC_DIM, normalize_token, phoc_encode
from .stopwords import NORMALIZED_STOPWORDS


@dataclass(frozen=True)
class Word:
    word_index: int
    line_index: int
    transcription: str
    phoc: np.ndarray
    bbox: tuple[float, float, float, float] | None = None


@dataclass(frozen=True)
class Line:
    line_index: int
    start_word: int
    end_word: int  # inclusive


@dataclass(frozen=True)
class Document:
    doc_id: str
    words: tuple[Word, ...]
    lines: tuple[Line, ...]

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    def line_of_word(self, word_index: int) -> int:
        return self.words[word_index].line_index

    def word_ids_of_lines(self, start_line: int, end_line: int) -> set[int]:
        """All word indices on lines start_line..end_line inclusive."""
        ids: set[int] = set()
        for ln in self.lines[start_line : end_line + 1]:
            ids.update(range(ln.start_word, ln.end_word + 1))
        return ids


@dataclass(frozen=True)
class Collection:
    documents: Mapping[str, Document] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # read-only, so the cached index can never go stale
        object.__setattr__(self, "documents", MappingProxyType(dict(self.documents)))

    def __len__(self) -> int:
        return len(self.documents)

    def __getitem__(self, doc_id: str) -> Document:
        return self.documents[doc_id]

    def ordered(self) -> list[Document]:
        return [self.documents[k] for k in sorted(self.documents)]

    @cached_property
    def index(self) -> PackedIndex:
        """The packed index over ordered(), built on first use.
        load_collection and corrupt_collection build it before they return,
        so no query pays for it."""
        return build_index(self.ordered())


PACKED_WORDS = 8  # uint64 words per packed PHOC: 504 bits, zero-padded to 512
PACK_BLOCK = 4096  # float64 rows stacked at a time while packing
_ROW_RECORD = np.dtype((np.void, PACKED_WORDS * 8))


@dataclass(frozen=True)
class PackedIndex:
    """Word vectors of a document sequence as packed types and a token-to-type
    map; build_index holds each distinct vector once.

    Bit i of a PHOC is bit i % 64 of word i // 64 of its packed vector (words
    in native byte order); the padding bits are clear, so AND plus popcount
    of two packed vectors is the dot product of the binary vectors.

    `types` is column-major: a C-contiguous (PACKED_WORDS, V) array whose
    column v is type v, so scoring one query vector against every type is
    PACKED_WORDS passes over contiguous V-length rows.
    """

    types: np.ndarray  # (PACKED_WORDS, V) uint64, distinct packed vectors as columns
    counts: np.ndarray  # (V,) set bits of each type
    token_type: np.ndarray  # (N,) type of each token, documents concatenated
    offsets: np.ndarray  # (D,) first token of each document
    doc_ids: tuple[str, ...]  # (D,) id of each document


def _pack_rows(matrix: np.ndarray) -> tuple[np.ndarray, int | None]:
    """Pack (n, PHOC_DIM) rows; also return the first row holding a value
    other than 0 or 1, or None (such a row packs meaninglessly)."""
    if matrix.ndim != 2 or matrix.shape[1] != PHOC_DIM:
        raise ValueError(f"PHOC vectors must have length {PHOC_DIM}")
    ones = matrix == 1.0
    bad = None
    if np.count_nonzero(ones) != np.count_nonzero(matrix):
        bad = int(np.argmax(((matrix != 0.0) & ~ones).any(axis=1)))
    packed = np.zeros((len(matrix), PACKED_WORDS * 8), dtype=np.uint8)
    packed[:, : (PHOC_DIM + 7) // 8] = np.packbits(ones, axis=1, bitorder="little")
    return packed.view(np.uint64), bad


def pack_phocs(vectors: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pack binary PHOC vectors; returns ((n, PACKED_WORDS) rows, set-bit counts)."""
    packed, bad = _pack_rows(np.array(vectors, dtype=np.float64))
    if bad is not None:
        raise ValueError(f"vector {bad} is not binary")
    return packed, np.bitwise_count(packed).sum(axis=1)


def build_index(documents: Sequence[Document]) -> PackedIndex:
    """Pack the word vectors of `documents`, in order, into one index.

    Types are deduplicated by content, so tokens that share a transcription
    share a row and so do equal vectors on a corrupted collection.  Tokens
    that hold the same vector object (load_collection's shared PHOCs) are
    packed once.  Vectors are stacked PACK_BLOCK at a time, never all at
    once.  An empty document or a vector that is not binary raises
    ValueError naming the document.
    """
    for doc in documents:
        if not doc.words:
            raise ValueError(f"document {doc.doc_id!r} is empty")
    offsets = np.cumsum([0] + [len(doc.words) for doc in documents], dtype=np.intp)[:-1]
    words = [w for doc in documents for w in doc.words]
    # One row per vector object, in the order the objects are first seen.
    ids = np.fromiter((id(w.phoc) for w in words), dtype=np.uint64, count=len(words))
    _, first, token_object = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    token_row = np.argsort(order)[token_object]
    vectors = [words[t].phoc for t in first[order]]
    packed = np.empty((len(vectors), PACKED_WORDS), dtype=np.uint64)
    for start in range(0, len(vectors), PACK_BLOCK):
        block = np.array(vectors[start : start + PACK_BLOCK], dtype=np.float64)
        packed[start : start + len(block)], bad = _pack_rows(block)
        if bad is not None:
            token = int(np.argmax(token_row == start + bad))  # first token holding the row
            doc = documents[int(np.searchsorted(offsets, token, side="right")) - 1]
            raise ValueError(f"document {doc.doc_id!r}: PHOC of word {words[token].word_index} is not binary")
    # Rows viewed as opaque 64-byte records: np.unique sorts these far faster
    # than it sorts rows with axis=0.
    records, row_type = np.unique(packed.view(_ROW_RECORD).ravel(), return_inverse=True)
    types = np.ascontiguousarray(records.view(np.uint64).reshape(-1, PACKED_WORDS).T)
    return PackedIndex(
        types=types,
        counts=np.bitwise_count(types).sum(axis=0),
        token_type=row_type[token_row],
        offsets=offsets,
        doc_ids=tuple(doc.doc_id for doc in documents),
    )


def document_index(document: Document) -> PackedIndex:
    """The packed index of one document with a type per token, in order.

    Unlike build_index it does not deduplicate, which for a single document
    costs more than the duplicates it would save.  An empty document or a
    vector that is not binary raises ValueError naming the document.
    """
    if not document.words:
        raise ValueError(f"document {document.doc_id!r} is empty")
    rows, bad = _pack_rows(np.array([w.phoc for w in document.words], dtype=np.float64))
    if bad is not None:
        word = document.words[bad].word_index
        raise ValueError(f"document {document.doc_id!r}: PHOC of word {word} is not binary")
    return PackedIndex(
        types=np.ascontiguousarray(rows.T),
        counts=np.bitwise_count(rows).sum(axis=1),
        token_type=np.arange(len(rows)),
        offsets=np.zeros(1, dtype=np.intp),
        doc_ids=(document.doc_id,),
    )


@dataclass(frozen=True)
class Question:
    question_id: str
    text: str
    tokens: tuple[str, ...]
    gold_doc_id: str
    gold_word_span: tuple[int, int]
    gold_line_span: tuple[int, int]


def _build_document(entry: dict, encode: Callable[[str], np.ndarray]) -> Document:
    doc_id = entry["doc_id"]
    raw_words = entry["words"]
    if not raw_words:
        raise ValueError(f"document {doc_id!r}: empty document")
    words = []
    for pos, w in enumerate(raw_words):
        idx = w["word_index"]
        if idx != pos:
            raise ValueError(
                f"document {doc_id!r}: word_index {idx} at position {pos} "
                "(indices must be 0-based and consecutive)"
            )
        text = normalize_token(w["text"])
        bbox = tuple(w["bbox"]) if w.get("bbox") is not None else None
        words.append(Word(idx, w["line_index"], text, encode(text), bbox))

    lines = tuple(
        Line(ln["line_index"], ln["start_word"], ln["end_word"])
        for ln in sorted(entry["lines"], key=lambda x: x["line_index"])
    )
    for pos, ln in enumerate(lines):
        if ln.line_index != pos:
            raise ValueError(
                f"document {doc_id!r}: line_index {ln.line_index} at position {pos} "
                "(line indices must be 0-based and consecutive)"
            )
    # Line spans must partition the word sequence in order.
    expected_start = 0
    for ln in lines:
        if ln.start_word != expected_start or ln.end_word < ln.start_word:
            raise ValueError(f"document {doc_id!r}: line {ln.line_index} span invalid or overlapping")
        expected_start = ln.end_word + 1
    if expected_start != len(words):
        raise ValueError(f"document {doc_id!r}: line spans do not cover all words")
    by_index = {ln.line_index: ln for ln in lines}
    for w in words:
        ln = by_index.get(w.line_index)
        if ln is None or not (ln.start_word <= w.word_index <= ln.end_word):
            raise ValueError(
                f"document {doc_id!r}: word_index {w.word_index} has line_index "
                f"{w.line_index} not covered by any line span"
            )
    return Document(doc_id, tuple(words), lines)


def shared_encoder() -> Callable[[str], np.ndarray]:
    """A phoc_encode that encodes each distinct word once and hands every
    later caller the same read-only vector."""
    encoded: dict[str, np.ndarray] = {}

    def encode(text: str) -> np.ndarray:
        v = encoded.get(text)
        if v is None:
            v = encoded[text] = phoc_encode(text)
            v.flags.writeable = False
        return v

    return encode


def load_collection(path: str | Path) -> Collection:
    """Load and fully validate a collection JSON file; PHOCs are computed
    here, once per distinct word."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    encode = shared_encoder()
    documents: dict[str, Document] = {}
    for entry in data["documents"]:
        doc = _build_document(entry, encode)
        if doc.doc_id in documents:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r}")
        documents[doc.doc_id] = doc
    collection = Collection(documents)
    collection.index  # built while loading, not by the first query
    return collection


def write_collection(collection: Collection, path: str | Path) -> None:
    data = {
        "documents": [
            {
                "doc_id": doc.doc_id,
                "lines": [
                    {"line_index": ln.line_index, "start_word": ln.start_word, "end_word": ln.end_word}
                    for ln in doc.lines
                ],
                "words": [
                    {
                        "word_index": w.word_index,
                        "line_index": w.line_index,
                        "text": w.transcription,
                        **({"bbox": list(w.bbox)} if w.bbox is not None else {}),
                    }
                    for w in doc.words
                ],
            }
            for doc in collection.ordered()
        ]
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1)


def _line_span_of_word_span(doc: Document, span: tuple[int, int]) -> tuple[int, int]:
    return (doc.line_of_word(span[0]), doc.line_of_word(span[1]))


def load_questions(path: str | Path, collection: Collection) -> list[Question]:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    questions = []
    for q in data["questions"]:
        qid = q["question_id"]
        doc = collection.documents.get(q["gold_doc_id"])
        if doc is None:
            raise ValueError(f"question {qid!r}: unknown gold_doc_id {q['gold_doc_id']!r}")
        span = (q["gold_start_word"], q["gold_end_word"])
        if not (0 <= span[0] <= span[1] < len(doc.words)):
            raise ValueError(f"question {qid!r}: gold span {span} outside document {doc.doc_id!r}")
        questions.append(
            Question(
                question_id=qid,
                text=q["text"],
                tokens=tuple(preprocess_query(q["text"])[0]),
                gold_doc_id=doc.doc_id,
                gold_word_span=span,
                gold_line_span=_line_span_of_word_span(doc, span),
            )
        )
    return questions


def write_questions(questions: list[Question], path: str | Path) -> None:
    data = {
        "questions": [
            {
                "question_id": q.question_id,
                "text": q.text,
                "gold_doc_id": q.gold_doc_id,
                "gold_start_word": q.gold_word_span[0],
                "gold_end_word": q.gold_word_span[1],
            }
            for q in questions
        ]
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1)


def preprocess_query(text: str) -> tuple[list[str], list[np.ndarray]]:
    """Tokenize, normalize and stopword-filter a question; encode tokens to PHOC.

    If every normalized token is a stopword the filter is skipped, otherwise
    the query would be empty and the retrieval score undefined.
    """
    normalized = [t for t in (normalize_token(tok) for tok in text.split()) if t]
    if not normalized:
        raise ValueError("question has no usable tokens after normalization")
    kept = [t for t in normalized if t not in NORMALIZED_STOPWORDS]
    if not kept:
        kept = normalized
    return kept, [phoc_encode(t) for t in kept]


def corrupt_phoc(v: np.ndarray, flip_rate: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit of a binary PHOC, or of a matrix of PHOC rows,
    independently with probability flip_rate."""
    if not 0.0 <= flip_rate <= 1.0:
        raise ValueError(f"flip_rate {flip_rate} outside [0, 1]")
    if v.shape[-1:] != (PHOC_DIM,):
        raise ValueError(f"PHOC vectors must have length {PHOC_DIM}")
    if not np.all((v == 0.0) | (v == 1.0)):
        raise ValueError("corrupt_phoc expects a binary vector")
    flips = rng.random(v.shape) < flip_rate
    return np.abs(v - flips.astype(np.float64))


def corrupt_collection(collection: Collection, flip_rate: float, rng: np.random.Generator) -> Collection:
    """Corrupt every word PHOC in the collection; deterministic given the rng seed.

    Documents are visited in sorted doc_id order so the result does not depend
    on dict insertion order.
    """
    if flip_rate == 0.0:
        return collection
    documents = {}
    for doc in collection.ordered():
        if not doc.words:
            raise ValueError(f"document {doc.doc_id!r} is empty")
        # One draw per document takes the same PCG64 stream as one draw per
        # word, so the result matches corrupting word by word.
        try:
            noisy = corrupt_phoc(np.stack([w.phoc for w in doc.words]), flip_rate, rng)
        except ValueError as e:
            raise ValueError(f"document {doc.doc_id!r}: {e}") from e
        noisy.flags.writeable = False
        # the constructor, not dataclasses.replace, which costs several
        # times more per word
        words = tuple(
            Word(w.word_index, w.line_index, w.transcription, row, w.bbox) for w, row in zip(doc.words, noisy)
        )
        documents[doc.doc_id] = replace(doc, words=words)
    noisy = Collection(documents)
    noisy.index  # built while corrupting, not by the first query
    return noisy
