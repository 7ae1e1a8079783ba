"""Data model and ingestion for word/line-segmented document collections.

A document is an ordered word sequence with line membership; every word
carries the PHOC of its transcription as one packed 512-bit row of uint64
words, and that row is the only PHOC a collection stores.  Recognition
noise (the "predicted PHOC" condition) is simulated by independent
Bernoulli bit flips on the document-side rows; query vectors stay exact.

For scoring, a collection is held as a packed index: each distinct word
row once, plus a token-to-row map and per-document offsets.  The packing
format is defined here and nowhere else.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .phoc import PHOC_DIM, normalize_token, phoc_encode
from .stopwords import NORMALIZED_STOPWORDS


@dataclass(frozen=True, slots=True)
class Word:
    word_index: int
    line_index: int
    transcription: str
    packed: np.ndarray  # (PACKED_WORDS,) uint64, read-only; layout as in PackedIndex
    bbox: tuple[float, float, float, float] | None = None

    @property
    def phoc(self) -> np.ndarray:
        """The binary PHOC, unpacked into a fresh float64 0/1 vector."""
        return unpack_phocs(self.packed)


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
_PHOC_BYTES = (PHOC_DIM + 7) // 8  # 63; byte 63 of a packed row holds the padding bits
_ROW_RECORD = np.dtype((np.void, PACKED_WORDS * 8))


@dataclass(frozen=True)
class PackedIndex:
    """Word rows of a document sequence as packed types and a token-to-type
    map; build_index holds each distinct row once.

    Bit i of a PHOC is bit i % 8 of byte i // 8 of its packed row, and the
    row's bytes are read as PACKED_WORDS uint64 words in native byte order;
    the padding bits 504-511 are clear, so AND plus popcount of two packed
    rows is the dot product of the binary vectors.

    `types` is column-major: a C-contiguous (PACKED_WORDS, V) array whose
    column v is type v, so scoring one query vector against every type is
    PACKED_WORDS passes over contiguous V-length rows.
    """

    types: np.ndarray  # (PACKED_WORDS, V) uint64, distinct packed rows as columns
    counts: np.ndarray  # (V,) set bits of each type
    token_type: np.ndarray  # (N,) type of each token, documents concatenated
    offsets: np.ndarray  # (D,) first token of each document
    doc_ids: tuple[str, ...]  # (D,) id of each document


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack an (n, PHOC_DIM) boolean matrix into (n, PACKED_WORDS) uint64 rows."""
    packed = np.zeros((len(bits), PACKED_WORDS * 8), dtype=np.uint8)
    packed[:, :_PHOC_BYTES] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(np.uint64)


def pack_phocs(vectors: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pack binary PHOC vectors; returns ((n, PACKED_WORDS) rows, set-bit counts)."""
    matrix = np.array(vectors, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != PHOC_DIM:
        raise ValueError(f"PHOC vectors must have length {PHOC_DIM}")
    ones = matrix == 1.0
    if np.count_nonzero(ones) != np.count_nonzero(matrix):
        bad = int(np.argmax(((matrix != 0.0) & ~ones).any(axis=1)))
        raise ValueError(f"vector {bad} is not binary")
    packed = _pack_bits(ones)
    return packed, np.bitwise_count(packed).sum(axis=1)


def pack_phoc(vector: np.ndarray) -> np.ndarray:
    """The read-only (PACKED_WORDS,) packed row of one binary PHOC vector."""
    row = pack_phocs([vector])[0][0]
    row.flags.writeable = False
    return row


def unpack_phocs(rows: np.ndarray) -> np.ndarray:
    """Packed rows (..., PACKED_WORDS) as float64 0/1 PHOCs (..., PHOC_DIM)."""
    bits = np.unpackbits(rows.view(np.uint8), axis=-1, count=PHOC_DIM, bitorder="little")
    return bits.astype(np.float64)


def _stack_rows(rows: Sequence[np.ndarray]) -> tuple[np.ndarray | None, tuple[int, str] | None]:
    """Stack packed rows into one (n, PACKED_WORDS) array; also return the
    position of the first malformed row and what is wrong with it, or None.
    The check runs once over the stacked rows; only a failure looks at the
    rows one by one, to name the culprit."""
    try:
        stacked = np.array(rows) if rows else np.empty((0, PACKED_WORDS), dtype=np.uint64)
    except ValueError:  # rows of different shapes
        stacked = None
    if stacked is None or stacked.shape != (len(rows), PACKED_WORDS) or stacked.dtype != np.uint64:
        bad = next(
            i for i, r in enumerate(rows)
            if not (isinstance(r, np.ndarray) and r.shape == (PACKED_WORDS,) and r.dtype == np.uint64)
        )
        return None, (bad, f"is not a ({PACKED_WORDS},) uint64 row")
    padded = stacked.view(np.uint8)[:, _PHOC_BYTES] != 0
    if padded.any():
        return None, (int(np.argmax(padded)), "has padding bits set")
    return stacked, None


def document_rows(document: Document) -> np.ndarray:
    """The (n, PACKED_WORDS) packed rows of a document's words, in order.

    An empty document, or a row that is not a (PACKED_WORDS,) uint64 row or
    has a padding bit set, raises ValueError naming the document and word.
    """
    if not document.words:
        raise ValueError(f"document {document.doc_id!r} is empty")
    rows, bad = _stack_rows([w.packed for w in document.words])
    if bad is not None:
        word = document.words[bad[0]].word_index
        raise ValueError(f"document {document.doc_id!r}: PHOC of word {word} {bad[1]}")
    return rows


def build_index(documents: Sequence[Document]) -> PackedIndex:
    """Stack the packed rows of `documents`, in order, into one index.

    Types are deduplicated by content, so tokens that share a transcription
    share a type and so do equal rows on a corrupted collection.  Tokens
    that hold the same row object (load_collection's shared rows) are
    stacked once.  An empty document or a malformed row raises ValueError
    naming the document and word, as document_rows does.
    """
    for doc in documents:
        if not doc.words:
            raise ValueError(f"document {doc.doc_id!r} is empty")
    offsets = np.cumsum([0] + [len(doc.words) for doc in documents], dtype=np.intp)[:-1]
    words = [w for doc in documents for w in doc.words]
    # Each row object stacked once, in the order the objects are first seen.
    ids = np.fromiter((id(w.packed) for w in words), dtype=np.uint64, count=len(words))
    _, first, token_object = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    token_row = np.argsort(order)[token_object]
    first = first[order]
    rows, bad = _stack_rows([words[t].packed for t in first])
    if bad is not None:
        token = int(first[bad[0]])  # first token holding the row
        doc = documents[int(np.searchsorted(offsets, token, side="right")) - 1]
        raise ValueError(f"document {doc.doc_id!r}: PHOC of word {words[token].word_index} {bad[1]}")
    # Rows viewed as opaque 64-byte records: np.unique sorts these far faster
    # than it sorts rows with axis=0.
    records, row_type = np.unique(rows.view(_ROW_RECORD).ravel(), return_inverse=True)
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
    costs more than the duplicates it would save.  Raises as document_rows.
    """
    rows = document_rows(document)
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


def _list_field(entry: dict, key: str, where: str) -> list:
    value = entry.get(key)
    if not isinstance(value, list):
        problem = "is missing" if key not in entry else f"must be a list, not {type(value).__name__}"
        raise ValueError(f"{where}: field {key!r} {problem}")
    return value


def _line(raw, where: str) -> Line:
    values = [raw.get(k) for k in ("line_index", "start_word", "end_word")] if isinstance(raw, dict) else []
    if len(values) != 3 or any(type(v) is not int for v in values):
        raise ValueError(
            f"{where}: field 'lines' holds {raw!r}; each line needs integer "
            "line_index, start_word and end_word"
        )
    return Line(*values)


def _bbox(raw, where: str, pos: int) -> tuple[float, float, float, float]:
    if not (
        isinstance(raw, list) and len(raw) == 4
        and all(type(x) in (int, float) and math.isfinite(x) for x in raw)
    ):
        raise ValueError(f"{where}: word {pos} field 'bbox' must be 4 finite numbers, not {raw!r}")
    return tuple(raw)


def _build_document(
    entry, position: int, word_types: dict[str, tuple[str, np.ndarray]], encode: Callable[[str], np.ndarray]
) -> Document:
    """One validated Document from its JSON entry.  `word_types` maps each
    raw text seen so far to its transcription and packed row, so a text is
    checked, normalized and encoded only the first time it is seen."""
    doc_id = entry.get("doc_id") if isinstance(entry, dict) else None
    if not isinstance(doc_id, str):
        raise ValueError(f"document {position}: field 'doc_id' must be a string, not {doc_id!r}")
    where = f"document {doc_id!r}"
    raw_words = _list_field(entry, "words", where)
    raw_lines = _list_field(entry, "lines", where)
    if not raw_words:
        raise ValueError(f"{where}: empty document")
    lines = tuple(sorted((_line(ln, where) for ln in raw_lines), key=lambda ln: ln.line_index))
    for pos, ln in enumerate(lines):
        if ln.line_index != pos:
            raise ValueError(
                f"{where}: line_index {ln.line_index} at position {pos} "
                "(line indices must be 0-based and consecutive)"
            )
    # Line spans must partition the word sequence in order.
    expected_start = 0
    for ln in lines:
        if ln.start_word != expected_start or ln.end_word < ln.start_word:
            raise ValueError(f"{where}: line {ln.line_index} span invalid or overlapping")
        expected_start = ln.end_word + 1
    if expected_start != len(raw_words):
        raise ValueError(f"{where}: line spans do not cover all words")
    line_of = [ln.line_index for ln in lines for _ in range(ln.start_word, ln.end_word + 1)]

    words = []
    pos = 0
    try:
        for pos, w in enumerate(raw_words):
            idx, line, raw = w["word_index"], w["line_index"], w["text"]
            if idx != pos or type(idx) is not int:
                raise ValueError(
                    f"{where}: word_index {idx!r} at position {pos} "
                    "(indices must be 0-based and consecutive)"
                )
            if line != line_of[pos] or type(line) is not int:
                raise ValueError(f"{where}: word_index {pos} has line_index {line!r} but lies on line {line_of[pos]}")
            try:
                text, packed = word_types[raw]
            except (KeyError, TypeError):  # a new text, or not a string at all
                if not isinstance(raw, str):
                    raise ValueError(f"{where}: word {pos} field 'text' must be a string, not {raw!r}") from None
                text = normalize_token(raw)
                text, packed = word_types[raw] = (text, encode(text))
            bbox = w.get("bbox")
            if bbox is not None:
                bbox = _bbox(bbox, where, pos)
            words.append(Word(idx, line, text, packed, bbox))
    except KeyError as e:
        raise ValueError(f"{where}: word {pos} has no field {e.args[0]!r}") from None
    except TypeError:
        raise ValueError(f"{where}: word {pos} is not an object") from None
    return Document(doc_id, tuple(words), lines)


def shared_encoder() -> Callable[[str], np.ndarray]:
    """Packs phoc_encode of each distinct word once and hands every later
    caller the same read-only row."""
    encoded: dict[str, np.ndarray] = {}

    def encode(text: str) -> np.ndarray:
        row = encoded.get(text)
        if row is None:
            row = encoded[text] = pack_phoc(phoc_encode(text))
        return row

    return encode


def load_collection(path: str | Path) -> Collection:
    """Load and fully validate a collection JSON file; PHOCs are computed
    and packed here, once per distinct word.  A malformed collection raises
    ValueError naming the document and field."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"collection must be a JSON object, not {type(data).__name__}")
    entries = _list_field(data, "documents", "top level")
    encode = shared_encoder()
    word_types: dict[str, tuple[str, np.ndarray]] = {}
    documents: dict[str, Document] = {}
    for position, entry in enumerate(entries):
        doc = _build_document(entry, position, word_types, encode)
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


_QUESTION_FIELDS = (
    ("question_id", str, "a string"),
    ("text", str, "a string"),
    ("gold_doc_id", str, "a string"),
    ("gold_start_word", int, "an integer"),
    ("gold_end_word", int, "an integer"),
)


def load_questions(path: str | Path, collection: Collection) -> list[Question]:
    """Load and validate a question file against `collection`.  A malformed
    file raises ValueError naming the question (by id, or by position when
    it has no string id) and the field."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"question file must be a JSON object, not {type(data).__name__}")
    questions = []
    for position, q in enumerate(_list_field(data, "questions", "top level")):
        if not isinstance(q, dict):
            raise ValueError(f"question {position} is not an object")
        qid = q.get("question_id")
        where = f"question {qid!r}" if isinstance(qid, str) else f"question {position}"
        for key, kind, described in _QUESTION_FIELDS:
            if key not in q:
                raise ValueError(f"{where}: field {key!r} is missing")
            if type(q[key]) is not kind:  # exact: a bool is not an integer here
                raise ValueError(f"{where}: field {key!r} must be {described}, not {q[key]!r}")
        doc = collection.documents.get(q["gold_doc_id"])
        if doc is None:
            raise ValueError(f"{where}: unknown gold_doc_id {q['gold_doc_id']!r}")
        span = (q["gold_start_word"], q["gold_end_word"])
        if not (0 <= span[0] <= span[1] < len(doc.words)):
            raise ValueError(f"{where}: gold span {span} outside document {doc.doc_id!r}")
        try:
            tokens = tuple(query_tokens(q["text"]))
        except ValueError as e:
            raise ValueError(f"{where}: field 'text': {e}") from None
        questions.append(
            Question(
                question_id=qid,
                text=q["text"],
                tokens=tokens,
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


def query_tokens(text: str) -> list[str]:
    """Tokenize, normalize and stopword-filter a question.

    If every normalized token is a stopword the filter is skipped, otherwise
    the query would be empty and the retrieval score undefined.
    """
    normalized = [t for t in (normalize_token(tok) for tok in text.split()) if t]
    if not normalized:
        raise ValueError("question has no usable tokens after normalization")
    kept = [t for t in normalized if t not in NORMALIZED_STOPWORDS]
    return kept or normalized


def preprocess_query(text: str) -> tuple[list[str], list[np.ndarray]]:
    """The query_tokens of a question and the PHOC of each."""
    kept = query_tokens(text)
    return kept, [phoc_encode(t) for t in kept]


def _check_flip_rate(flip_rate: float) -> None:
    if not 0.0 <= flip_rate <= 1.0:
        raise ValueError(f"flip_rate {flip_rate} outside [0, 1]")


def corrupt_phoc(v: np.ndarray, flip_rate: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit of a binary PHOC, or of a matrix of PHOC rows,
    independently with probability flip_rate."""
    _check_flip_rate(flip_rate)
    if v.shape[-1:] != (PHOC_DIM,):
        raise ValueError(f"PHOC vectors must have length {PHOC_DIM}")
    if not np.all((v == 0.0) | (v == 1.0)):
        raise ValueError("corrupt_phoc expects a binary vector")
    flips = rng.random(v.shape) < flip_rate
    return np.abs(v - flips.astype(np.float64))


def corrupt_collection(collection: Collection, flip_rate: float, rng: np.random.Generator) -> Collection:
    """Corrupt every word PHOC in the collection; deterministic given the rng seed.

    Documents are visited in sorted doc_id order so the result does not depend
    on dict insertion order.  Each document's flips are drawn as corrupt_phoc
    draws them for its stacked rows, so the result equals corrupting word by
    word, and are applied to the packed rows as an XOR.
    """
    _check_flip_rate(flip_rate)
    if flip_rate == 0.0:
        return collection
    documents = {}
    for doc in collection.ordered():
        clean = document_rows(doc)
        noisy = clean ^ _pack_bits(rng.random((len(clean), PHOC_DIM)) < flip_rate)
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
