"""Data model and ingestion for word/line-segmented document collections.

A document is a word sequence held as columns: transcriptions, a
token-to-line column and a token-to-row map into a read-only table of
packed 512-bit PHOC rows (PACKED_WORDS uint64 words each).  load_collection
and synth.generate give every document of a collection the same table, one
row per distinct word, and corrupt_collection gives each document a table
of its own, one row per token.  Word objects are views built on demand by
Document.words.  Recognition noise (the "predicted PHOC" condition) is
simulated by independent Bernoulli bit flips on the document-side rows;
query vectors stay exact.

For scoring, a collection is held as a packed index: the rows of each
distinct table, stacked once in first-seen order, plus a token-to-row map
(None when token i is row i) and per-document offsets.  The packing format
is defined here and nowhere else.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import zip_longest
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .phoc import PHOC_DIM, normalize_token, phoc_encode
from .stopwords import NORMALIZED_STOPWORDS

BBox = tuple[float, float, float, float]


@dataclass(frozen=True, slots=True)
class Word:
    word_index: int
    line_index: int
    transcription: str
    packed: np.ndarray  # (PACKED_WORDS,) uint64, read-only; layout as in PackedIndex
    bbox: BBox | None = None

    @property
    def phoc(self) -> np.ndarray:
        """The binary PHOC, unpacked into a fresh float64 0/1 vector."""
        return unpack_phocs(self.packed)


@dataclass(frozen=True, eq=False)
class Document:
    """Token i has transcription transcriptions[i], lies on line
    word_lines[i] and has the PHOC in row token_row[i] of `table`.

    The constructor checks everything once and makes the three arrays
    read-only; a malformed document raises ValueError naming it.
    """

    doc_id: str
    transcriptions: tuple[str, ...]
    word_lines: np.ndarray  # (n,) intp, 0-based, each step 0 or 1
    table: np.ndarray  # (R, PACKED_WORDS) uint64, C-contiguous packed rows
    token_row: np.ndarray  # (n,) intp, the table row of each token
    bboxes: tuple[BBox | None, ...] | None = None  # None: no token has one

    def __post_init__(self) -> None:
        where = f"document {self.doc_id!r}"
        n, word_lines, table, token_row = len(self.transcriptions), self.word_lines, self.table, self.token_row
        if n == 0:
            raise ValueError(f"{where} is empty")
        if not (
            isinstance(table, np.ndarray) and table.dtype == np.uint64 and table.ndim == 2
            and table.shape[1] == PACKED_WORDS and table.flags.c_contiguous
        ):
            raise ValueError(f"{where}: PHOC table is not a C-contiguous (rows, {PACKED_WORDS}) uint64 array")
        if not (isinstance(token_row, np.ndarray) and token_row.dtype == np.intp and token_row.shape == (n,)):
            raise ValueError(f"{where}: token map is not a ({n},) intp array")
        if token_row.min() < 0 or token_row.max() >= len(table):
            raise ValueError(f"{where}: token map points outside its {len(table)}-row PHOC table")
        padded = (table.view(np.uint8)[:, _PHOC_BYTES] != 0)[token_row]
        if padded.any():
            raise ValueError(f"{where}: PHOC of word {int(np.argmax(padded))} has padding bits set")
        if not (isinstance(word_lines, np.ndarray) and word_lines.dtype == np.intp and word_lines.shape == (n,)):
            raise ValueError(f"{where}: line column is not a ({n},) intp array")
        if word_lines[0] != 0:
            raise ValueError(f"{where}: word 0 has line_index {word_lines[0]}, not 0")
        steps = (word_lines[1:] - word_lines[:-1]).view(np.uintp)  # a step back wraps to a huge one
        if steps.max(initial=0) > 1:
            i = int(np.argmax(steps > 1)) + 1
            raise ValueError(
                f"{where}: word {i} has line_index {word_lines[i]} after {word_lines[i - 1]} "
                "(line indices must be 0-based and consecutive)"
            )
        if self.bboxes is not None and len(self.bboxes) != n:
            raise ValueError(f"{where}: {len(self.bboxes)} bboxes for {n} words")
        word_lines.flags.writeable = False
        table.flags.writeable = False
        token_row.flags.writeable = False

    def __len__(self) -> int:
        return len(self.transcriptions)

    @property
    def rows(self) -> np.ndarray:
        """The (n, PACKED_WORDS) packed rows of the tokens, in order."""
        return self.table[self.token_row]

    @cached_property
    def line_starts(self) -> np.ndarray:
        """The (num_lines,) first token of each line."""
        starts = np.searchsorted(self.word_lines, np.arange(self.num_lines))  # word_lines is sorted
        starts.flags.writeable = False
        return starts

    @property
    def words(self) -> tuple[Word, ...]:
        """A Word view of every token, built on each call.  The package
        reads the columns; the view is for callers that want one object per
        word, such as the benchmark's checks in phocbench/measure.py."""
        bboxes = self.bboxes or (None,) * len(self)
        return tuple(
            Word(i, line, text, self.table[row], bbox)
            for i, (line, text, row, bbox) in enumerate(
                zip(self.word_lines.tolist(), self.transcriptions, self.token_row.tolist(), bboxes)
            )
        )

    @property
    def num_lines(self) -> int:
        return int(self.word_lines[-1]) + 1

    def line_of_word(self, word_index: int) -> int:
        return int(self.word_lines[word_index])

    def word_ids_of_lines(self, start_line: int, end_line: int) -> set[int]:
        """All word indices on lines start_line..end_line inclusive."""
        starts = self.line_starts
        end = starts[end_line + 1] if end_line + 1 < len(starts) else len(self)
        return set(range(starts[start_line], end))


@dataclass(frozen=True)
class Collection:
    documents: Mapping[str, Document] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # read-only, so the cached index can never go stale
        object.__setattr__(self, "documents", MappingProxyType(dict(self.documents)))
        for key, doc in self.documents.items():
            if key != doc.doc_id:
                raise ValueError(f"collection key {key!r} holds document {doc.doc_id!r}")

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


@dataclass(frozen=True)
class PackedIndex:
    """Word rows of a document sequence as packed types and a token-to-type
    map; build_index stacks each distinct table once.

    Bit i of a PHOC is bit i % 8 of byte i // 8 of its packed row, and the
    row's bytes are read as PACKED_WORDS uint64 words in native byte order;
    the padding bits 504-511 are clear, so AND plus popcount of two packed
    rows is the dot product of the binary vectors.

    `types` is column-major: a C-contiguous (PACKED_WORDS, V) array whose
    column v is type v, so scoring one query vector against every type is
    PACKED_WORDS passes over contiguous V-length rows.

    `token_type` is None when token i is type i for every token, that is
    when the stacked rows are the tokens in order, each used once: the
    case of a corrupted collection or any input with one PHOC per word
    image.  Per-type scores are then already per-token scores.
    """

    types: np.ndarray  # (PACKED_WORDS, V) uint64, packed rows as columns
    counts: np.ndarray  # (V,) intp, set bits of each type
    token_type: np.ndarray | None  # (N,) type of each token, documents concatenated; None: the identity
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


def unpack_phocs(rows: np.ndarray) -> np.ndarray:
    """Packed rows (..., PACKED_WORDS) as float64 0/1 PHOCs (..., PHOC_DIM)."""
    bits = np.unpackbits(rows.view(np.uint8), axis=-1, count=PHOC_DIM, bitorder="little")
    return bits.astype(np.float64)


def phoc_table(texts: Iterable[str]) -> np.ndarray:
    """The (len(texts), PACKED_WORDS) packed rows of phoc_encode of each
    normalized text, in order."""
    phocs = np.array([phoc_encode(t) for t in texts]).reshape(-1, PHOC_DIM)
    return _pack_bits(phocs == 1.0)


def build_index(documents: Sequence[Document]) -> PackedIndex:
    """Stack the tables of `documents` into one index, in document order.

    Each distinct table is stacked once, in first-seen order, however many
    documents share it, and a token's type is its table row offset by where
    that table starts in the stack.  Rows are not compared: equal rows in
    separate tables stay separate types.  When the token-to-type map is
    exactly 0, 1, ..., N - 1, the index holds None in its place.
    """
    offsets = np.cumsum([0] + [len(doc) for doc in documents], dtype=np.intp)[:-1]
    tables = {id(doc.table): doc.table for doc in documents}  # in first-seen order
    first = dict(zip(tables, np.cumsum([0] + [len(t) for t in tables.values()]).tolist()))
    token_type = np.concatenate(
        [np.empty(0, dtype=np.intp)] + [doc.token_row + first[id(doc.table)] for doc in documents]
    )
    types = np.concatenate([np.empty((PACKED_WORDS, 0), dtype=np.uint64)] + [t.T for t in tables.values()], axis=1)
    identity = np.array_equal(token_type, np.arange(types.shape[1]))
    return PackedIndex(
        types=types,
        counts=np.bitwise_count(types).sum(axis=0, dtype=np.intp),
        token_type=None if identity else token_type,
        offsets=offsets,
        doc_ids=tuple(doc.doc_id for doc in documents),
    )


@dataclass(frozen=True)
class Question:
    """A question and its gold answer.  `tokens` are query_tokens(text), and
    a question's query is the phoc_encode of each."""

    question_id: str
    text: str
    tokens: tuple[str, ...]
    gold_doc_id: str
    gold_word_span: tuple[int, int]
    gold_line_span: tuple[int, int]


@dataclass(frozen=True)
class AnswerPrediction:
    doc_id: str
    start_line: int
    end_line: int
    confidence: float
    # word-granularity span when the predictor works at word level
    start_word: int | None = None
    end_word: int | None = None


def _list_field(entry: dict, key: str, where: str) -> list:
    value = entry.get(key)
    if not isinstance(value, list):
        problem = "is missing" if key not in entry else f"must be a list, not {type(value).__name__}"
        raise ValueError(f"{where}: field {key!r} {problem}")
    return value


def _line(raw, where: str) -> tuple[int, int, int]:
    line = (raw.get("line_index"), raw.get("start_word"), raw.get("end_word")) if isinstance(raw, dict) else ()
    if not (line and type(line[0]) is type(line[1]) is type(line[2]) is int):
        raise ValueError(
            f"{where}: field 'lines' holds {raw!r}; each line needs integer "
            "line_index, start_word and end_word"
        )
    return line


def _line_spans(doc: Document) -> list[tuple[int, int, int]]:
    """The (line_index, start_word, end_word) of each line, in order."""
    starts = doc.line_starts.tolist()
    return [(i, start, end - 1) for i, (start, end) in enumerate(zip(starts, starts[1:] + [len(doc)]))]


def _bbox(raw, where: str, pos: int) -> BBox:
    if not (
        isinstance(raw, list) and len(raw) == 4
        and all(type(x) in (int, float) and math.isfinite(x) for x in raw)
    ):
        raise ValueError(f"{where}: word {pos} field 'bbox' must be 4 finite numbers, not {raw!r}")
    return tuple(raw)


def _parse_document(entry, position: int, word_types: dict[str, tuple[str, int]], rows: dict[str, int]):
    """The Document fields of one JSON entry, and its file's sorted 'lines',
    which load_collection checks.  `word_types` maps each raw text seen so
    far to its transcription and table row, and `rows` each transcription
    to its row, so a text is checked and normalized only the first time it
    is seen."""
    doc_id = entry.get("doc_id") if isinstance(entry, dict) else None
    if not isinstance(doc_id, str):
        raise ValueError(f"document {position}: field 'doc_id' must be a string, not {doc_id!r}")
    where = f"document {doc_id!r}"
    raw_words = _list_field(entry, "words", where)
    lines = sorted(_line(ln, where) for ln in _list_field(entry, "lines", where))
    transcriptions, token_row, word_lines, bboxes = [], [], [], []
    pos = 0
    try:
        for pos, w in enumerate(raw_words):
            idx, line, raw = w["word_index"], w["line_index"], w["text"]
            if idx != pos or type(idx) is not int:
                raise ValueError(
                    f"{where}: word_index {idx!r} at position {pos} "
                    "(indices must be 0-based and consecutive)"
                )
            if type(line) is not int or not 0 <= line <= pos:  # a word's line cannot come after its index
                raise ValueError(f"{where}: word_index {pos} has line_index {line!r}, not an integer in 0..{pos}")
            try:
                text, row = word_types[raw]
            except (KeyError, TypeError):  # a new text, or not a string at all
                if not isinstance(raw, str):
                    raise ValueError(f"{where}: word {pos} field 'text' must be a string, not {raw!r}") from None
                text = normalize_token(raw)
                text, row = word_types[raw] = (text, rows.setdefault(text, len(rows)))
            bbox = w.get("bbox")
            transcriptions.append(text)
            token_row.append(row)
            word_lines.append(line)
            bboxes.append(None if bbox is None else _bbox(bbox, where, pos))
    except KeyError as e:
        raise ValueError(f"{where}: word {pos} has no field {e.args[0]!r}") from None
    except TypeError:
        raise ValueError(f"{where}: word {pos} is not an object") from None
    boxed = tuple(bboxes) if bboxes.count(None) < len(bboxes) else None
    word_lines, token_row = np.array(word_lines, dtype=np.intp), np.array(token_row, dtype=np.intp)
    return doc_id, tuple(transcriptions), word_lines, token_row, boxed, lines


def parse_json(text: str, source) -> object:
    """json.loads, but a nesting too deep for the parser raises ValueError
    naming `source` instead of RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{source}: JSON nested too deeply to parse") from None


def load_collection(path: str | Path) -> Collection:
    """Load and fully validate a collection JSON file; PHOCs are computed
    and packed here, once per distinct word, into one table that every
    document shares.  Each document's 'lines' must be the spans of its
    words' line_index.  A malformed collection raises ValueError naming the
    document and field."""
    with open(path, encoding="utf-8") as f:
        data = parse_json(f.read(), path)
    if not isinstance(data, dict):
        raise ValueError(f"collection must be a JSON object, not {type(data).__name__}")
    entries = _list_field(data, "documents", "top level")
    word_types: dict[str, tuple[str, int]] = {}
    rows: dict[str, int] = {}
    parsed = {}
    for position, entry in enumerate(entries):
        doc_id, *fields = _parse_document(entry, position, word_types, rows)
        if doc_id in parsed:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        parsed[doc_id] = fields
    table = phoc_table(rows)
    documents = {}
    for doc_id, (transcriptions, word_lines, token_row, bboxes, lines) in parsed.items():
        doc = documents[doc_id] = Document(doc_id, transcriptions, word_lines, table, token_row, bboxes)
        spans = _line_spans(doc)
        if lines != spans:
            pos, got, want = next((i, a, b) for i, (a, b) in enumerate(zip_longest(lines, spans)) if a != b)
            raise ValueError(
                f"document {doc_id!r}: field 'lines' disagrees with the words' line_index at line {pos}: "
                f"(line_index, start_word, end_word) is {got} in the file, {want} by the words"
            )
    collection = Collection(documents)
    collection.index  # built while loading, not by the first query
    return collection


def write_collection(collection: Collection, path: str | Path) -> None:
    """Write `collection` as load_collection reads it, straight from each
    document's columns."""
    data = {
        "documents": [
            {
                "doc_id": doc.doc_id,
                "lines": [
                    {"line_index": i, "start_word": start, "end_word": end} for i, start, end in _line_spans(doc)
                ],
                "words": [
                    {
                        "word_index": i,
                        "line_index": line,
                        "text": text,
                        **({"bbox": list(bbox)} if bbox is not None else {}),
                    }
                    for i, (line, text, bbox) in enumerate(
                        zip(doc.word_lines.tolist(), doc.transcriptions, doc.bboxes or (None,) * len(doc))
                    )
                ],
            }
            for doc in collection.ordered()
        ]
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1)


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
    it has no string id) and the field; a repeated question_id raises
    ValueError naming it."""
    with open(path, encoding="utf-8") as f:
        data = parse_json(f.read(), path)
    if not isinstance(data, dict):
        raise ValueError(f"question file must be a JSON object, not {type(data).__name__}")
    questions = {}
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
        if qid in questions:
            raise ValueError(f"duplicate question_id {qid!r}")
        doc = collection.documents.get(q["gold_doc_id"])
        if doc is None:
            raise ValueError(f"{where}: unknown gold_doc_id {q['gold_doc_id']!r}")
        span = (q["gold_start_word"], q["gold_end_word"])
        if not (0 <= span[0] <= span[1] < len(doc)):
            raise ValueError(f"{where}: gold span {span} outside document {doc.doc_id!r}")
        try:
            tokens = tuple(query_tokens(q["text"]))
        except ValueError as e:
            raise ValueError(f"{where}: field 'text': {e}") from None
        questions[qid] = Question(
            question_id=qid,
            text=q["text"],
            tokens=tokens,
            gold_doc_id=doc.doc_id,
            gold_word_span=span,
            gold_line_span=(doc.line_of_word(span[0]), doc.line_of_word(span[1])),
        )
    return list(questions.values())


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


def corrupt_collection(collection: Collection, flip_rate: float, rng: np.random.Generator) -> Collection:
    """Corrupt every word PHOC in the collection; deterministic given the rng seed.

    Documents are visited in sorted doc_id order so the result does not depend
    on dict insertion order.  Each document's flips are drawn as one
    (tokens, PHOC_DIM) block of rng.random, so the result equals flipping
    word by word in token order, and are applied to its packed rows as an
    XOR; the noisy document owns its table, one row per token.
    """
    if not 0.0 <= flip_rate <= 1.0:
        raise ValueError(f"flip_rate {flip_rate} outside [0, 1]")
    if flip_rate == 0.0:
        return collection
    documents = {}
    for doc in collection.ordered():
        clean = doc.rows
        noisy = clean ^ _pack_bits(rng.random((len(clean), PHOC_DIM)) < flip_rate)
        documents[doc.doc_id] = replace(doc, table=noisy, token_row=np.arange(len(clean)))
    noisy = Collection(documents)
    noisy.index  # built while corrupting, not by the first query
    return noisy
