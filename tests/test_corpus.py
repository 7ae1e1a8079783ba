import gc
import json
import math
import re
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from phocqa import corpus
from phocqa.corpus import (
    PACKED_WORDS,
    Collection,
    Document,
    Word,
    corrupt_collection,
    load_collection,
    load_questions,
    pack_phocs,
    phoc_table,
    preprocess_query,
    query_tokens,
    write_collection,
    write_questions,
)
from phocqa.phoc import PHOC_DIM, normalize_token, phoc_encode
from phocqa.stopwords import NORMALIZED_STOPWORDS, STOPWORDS
from phocqa.synth import GeneratorSpec, generate

from conftest import index_maxima, make_collection, random_word, rows_with_bit_set
from oracles import corrupt_phoc

VALID = {
    "documents": [
        {
            "doc_id": "a",
            "lines": [
                {"line_index": 0, "start_word": 0, "end_word": 1},
                {"line_index": 1, "start_word": 2, "end_word": 2},
            ],
            "words": [
                {"word_index": 0, "line_index": 0, "text": "dear"},
                {"word_index": 1, "line_index": 0, "text": "sir", "bbox": [1, 2, 30, 10]},
                {"word_index": 2, "line_index": 1, "text": "thanks"},
            ],
        },
        {
            "doc_id": "b",
            "lines": [{"line_index": 0, "start_word": 0, "end_word": 0}],
            "words": [{"word_index": 0, "line_index": 0, "text": "hello"}],
        },
    ]
}


def write_deeply_nested(tmp_path, key, depth=100_000):
    """A file {key: [[[...]]]} nested `depth` lists deep, past the JSON parser's recursion limit."""
    p = tmp_path / "nested.json"
    p.write_text(f'{{"{key}": ' + "[" * depth + "]" * depth + "}")
    return p


def write_json(tmp_path, data, name="collection.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def set_field(path, value):
    """A mutation of VALID that sets the field at `path` (keys and list
    positions) to `value`, or deletes it when value is DELETE."""

    def mutate(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        if value is DELETE:
            del data[last]
        else:
            data[last] = value

    return mutate


DELETE = object()
MALFORMED = {
    "documents-object": (set_field(["documents"], {"a": {}}), r"top level: field 'documents' must be a list"),
    "documents-missing": (set_field(["documents"], DELETE), r"top level: field 'documents' is missing"),
    "doc-id-integer": (set_field(["documents", 0, "doc_id"], 7), r"document 0: field 'doc_id' must be a string"),
    "document-not-object": (set_field(["documents", 1], "b"), r"document 1: field 'doc_id' must be a string"),
    "words-integer": (set_field(["documents", 0, "words"], 5), r"document 'a': field 'words' must be a list"),
    "lines-missing": (set_field(["documents", 0, "lines"], DELETE), r"document 'a': field 'lines' is missing"),
    "line-field-string": (set_field(["documents", 0, "lines", 1, "end_word"], "2"), r"document 'a': field 'lines' holds"),
    "word-not-object": (set_field(["documents", 0, "words", 1], "sir"), r"document 'a': word 1 is not an object"),
    "text-missing": (set_field(["documents", 0, "words", 2, "text"], DELETE), r"document 'a': word 2 has no field 'text'"),
    "text-integer": (set_field(["documents", 0, "words", 1, "text"], 7), r"document 'a': word 1 field 'text' must be a string"),
    "text-list": (set_field(["documents", 0, "words", 1, "text"], ["sir"]), r"document 'a': word 1 field 'text' must be a string"),
    "word-index-bool": (set_field(["documents", 0, "words", 1, "word_index"], True), r"document 'a': word_index True at position 1"),
    "line-index-float": (set_field(["documents", 0, "words", 2, "line_index"], 1.0), r"document 'a': word_index 2 has line_index 1.0"),
    "line-index-negative": (set_field(["documents", 0, "words", 1, "line_index"], -1), r"document 'a': word_index 1 has line_index -1, not an integer in 0\.\.1"),
    "line-index-huge": (set_field(["documents", 0, "words", 2, "line_index"], 2**70), r"document 'a': word_index 2 has line_index 1180591620717411303424, not"),
    "line-index-gap": (set_field(["documents", 0, "words", 2, "line_index"], 2), r"document 'a': word 2 has line_index 2 after 0"),
    "line-end-shifted": (set_field(["documents", 0, "lines", 0, "end_word"], 0), r"document 'a': field 'lines' disagrees with the words' line_index at line 0: \(line_index, start_word, end_word\) is \(0, 0, 0\) in the file, \(0, 0, 1\) by the words"),
    "line-extra": (set_field(["documents", 1, "lines"], [{"line_index": i, "start_word": i, "end_word": i} for i in (0, 1)]), r"document 'b': field 'lines' disagrees with the words' line_index at line 1: .* is \(1, 1, 1\) in the file, None by the words"),
    "line-entry-missing": (set_field(["documents", 0, "lines", 1], DELETE), r"document 'a': field 'lines' disagrees with the words' line_index at line 1: .* is None in the file, \(1, 2, 2\) by the words"),
    "bbox-nan": (set_field(["documents", 0, "words", 1, "bbox"], [1, float("nan"), 30, 10]), r"document 'a': word 1 field 'bbox'"),
    "bbox-two-numbers": (set_field(["documents", 0, "words", 1, "bbox"], [1, 2]), r"document 'a': word 1 field 'bbox'"),
    "bbox-string": (set_field(["documents", 0, "words", 0, "bbox"], [1, 2, "3", 4]), r"document 'a': word 0 field 'bbox'"),
    "bbox-huge-int": (set_field(["documents", 0, "words", 1, "bbox"], [1, 10**400, 30, 10]), r"document 'a': word 1 field 'bbox' must be 4 finite numbers"),
}


class TestLoadCollection:
    def test_valid_roundtrip(self, tmp_path):
        c = load_collection(write_json(tmp_path, VALID))
        assert len(c) == 2
        doc = c["a"]
        assert [w.transcription for w in doc.words] == ["dear", "sir", "thanks"]
        assert doc.words[1].bbox == (1, 2, 30, 10)
        np.testing.assert_array_equal(doc.words[0].phoc, phoc_encode("dear"))

    def test_nesting_too_deep_names_the_file(self, tmp_path):
        path = write_deeply_nested(tmp_path, "documents")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: JSON nested too deeply"):
            load_collection(path)

    def test_duplicate_doc_id(self, tmp_path):
        data = {"documents": VALID["documents"] + [VALID["documents"][0]]}
        with pytest.raises(ValueError, match="'a'"):
            load_collection(write_json(tmp_path, data))

    def test_overlapping_line_spans(self, tmp_path):
        data = json.loads(json.dumps(VALID))
        data["documents"][0]["lines"][1]["start_word"] = 1
        with pytest.raises(ValueError, match="line 1"):
            load_collection(write_json(tmp_path, data))

    def test_empty_document(self, tmp_path):
        data = {"documents": [{"doc_id": "x", "lines": [], "words": []}]}
        with pytest.raises(ValueError, match="empty"):
            load_collection(write_json(tmp_path, data))

    def test_uncovered_line_index(self, tmp_path):
        data = json.loads(json.dumps(VALID))
        data["documents"][1]["words"][0]["line_index"] = 7
        with pytest.raises(ValueError, match="line_index"):
            load_collection(write_json(tmp_path, data))

    def test_line_indices_must_be_consecutive(self, tmp_path):
        # lines 0 and 5 partition the words, but no line 1 exists
        data = json.loads(json.dumps(VALID))
        data["documents"][0]["lines"][1]["line_index"] = 5
        data["documents"][0]["words"][2]["line_index"] = 5
        with pytest.raises(ValueError, match=r"'a': word_index 2 has line_index 5, not an integer in 0\.\.2"):
            load_collection(write_json(tmp_path, data))
        # the words give lines 0 and 1, the file's lines 0 and 5
        data["documents"][0]["words"][2]["line_index"] = 1
        with pytest.raises(ValueError, match=r"'a': field 'lines' disagrees .* at line 1: .* is \(5, 2, 2\) in the file, \(1, 2, 2\) by the words"):
            load_collection(write_json(tmp_path, data))

    def test_one_read_only_phoc_per_word_type(self, tmp_path):
        data = json.loads(json.dumps(VALID))
        data["documents"][1]["words"][0]["text"] = "Dear"
        c = load_collection(write_json(tmp_path, data))
        a, b = c["a"], c["b"]
        assert b.table is a.table and len(a.table) == 3  # dear, sir, thanks
        assert b.token_row[0] == a.token_row[0] != a.token_row[1]
        assert not a.table.flags.writeable and not a.token_row.flags.writeable
        np.testing.assert_array_equal(b.words[0].phoc, phoc_encode("dear"))

    @pytest.mark.parametrize("mutate, message", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_field_named(self, tmp_path, mutate, message):
        data = json.loads(json.dumps(VALID))
        mutate(data)
        with pytest.raises(ValueError, match=message):
            load_collection(write_json(tmp_path, data))

    def test_top_level_not_object(self, tmp_path):
        with pytest.raises(ValueError, match="collection must be a JSON object"):
            load_collection(write_json(tmp_path, VALID["documents"]))

    def test_each_raw_text_normalized_once(self, tmp_path, monkeypatch):
        data = json.loads(json.dumps(VALID))
        data["documents"][1]["words"][0]["text"] = "Dear"
        data["documents"][0]["words"][2]["text"] = "dear"
        seen = []
        normalize = corpus.normalize_token
        monkeypatch.setattr(corpus, "normalize_token", lambda raw: seen.append(raw) or normalize(raw))
        c = load_collection(write_json(tmp_path, data))
        assert sorted(seen) == ["Dear", "dear", "sir"]
        assert [w.transcription for w in c["a"].words] == ["dear", "sir", "dear"]

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(json.JSONDecodeError, match=f"^{re.escape(str(p))}: Expecting property name"):
            load_collection(p)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b'{"documents": [' + b"9" * 5000 + b"]}", "Exceeds the limit"),
            ('{"documents": ["caf\xe9"]}'.encode("latin-1"), "'utf-8' codec can't decode byte 0xe9"),
        ],
        ids=["integer-too-long", "not-utf8"],
    )
    def test_unparsable_file_named(self, tmp_path, raw, message):
        p = tmp_path / "bad.json"
        p.write_bytes(raw)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {message}"):
            load_collection(p)

    def test_write_collection_bytes(self, tmp_path):
        # int, float and missing bboxes, some documents with none at all
        write_collection(load_collection(write_json(tmp_path, MUTABLE)), tmp_path / "out.json")
        expected = json.loads(json.dumps(MUTABLE))
        for doc in expected["documents"]:
            for w in doc["words"]:
                w["text"] = normalize_token(w["text"])
        assert (tmp_path / "out.json").read_text(encoding="utf-8") == json.dumps(expected, indent=1)

    def test_write_load_roundtrip(self, tmp_path):
        collection, questions = generate(GeneratorSpec(num_documents=4, num_questions=3, vocab_size=60, seed=9))
        cpath = tmp_path / "c.json"
        qpath = tmp_path / "q.json"
        write_collection(collection, cpath)
        write_questions(questions, qpath)
        reloaded = load_collection(cpath)
        assert sorted(reloaded.documents) == sorted(collection.documents)
        for did, doc in collection.documents.items():
            other = reloaded[did]
            assert [w.transcription for w in doc.words] == [w.transcription for w in other.words]
            assert doc.word_lines.dtype == other.word_lines.dtype
            assert doc.word_lines.tobytes() == other.word_lines.tobytes()
            for a, b in zip(doc.words, other.words):
                np.testing.assert_array_equal(a.phoc, b.phoc)
            # the one builder makes the same shared table and token map from the file
            assert other.table is reloaded[sorted(reloaded.documents)[0]].table
            for column in ("table", "token_row"):
                a, b = getattr(doc, column), getattr(other, column)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), column
        for name in ("planes", "counts", "token_type", "offsets"):
            a, b = getattr(collection.index, name), getattr(reloaded.index, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert reloaded.index.doc_ids == collection.index.doc_ids
        assert load_questions(qpath, reloaded) == questions


MUTABLE = {
    "documents": VALID["documents"] + [
        {
            "doc_id": "c",
            "lines": [
                {"line_index": 0, "start_word": 0, "end_word": 0},
                {"line_index": 1, "start_word": 1, "end_word": 2},
                {"line_index": 2, "start_word": 3, "end_word": 3},
            ],
            "words": [
                {"word_index": 0, "line_index": 0, "text": "Sir", "bbox": [0, 0, 5, 5]},
                {"word_index": 1, "line_index": 1, "text": "yours", "bbox": [0.5, 6, 9, 12]},
                {"word_index": 2, "line_index": 1, "text": "truly"},
                {"word_index": 3, "line_index": 2, "text": "J."},
            ],
        }
    ]
}
VALUES_BY_TYPE = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-2, 6),
    float: st.floats(),
    str: st.text(max_size=3),
    list: st.lists(st.integers(0, 3), max_size=4),
}


def field_locations(data) -> list[tuple[dict, str]]:
    """(object, key) of every field of every document, line and word that
    is still an object after earlier mutations."""
    found = []
    for doc in data["documents"]:
        if isinstance(doc, dict):
            found += [(doc, key) for key in doc]
            for part in ("lines", "words"):
                items = doc.get(part)
                if isinstance(items, list):
                    found += [(item, key) for item in items if isinstance(item, dict) for key in item]
    return found


def assert_document_invariants(doc: Document) -> None:
    n = len(doc)
    assert n > 0 and len(doc.token_row) == n and all(type(t) is str for t in doc.transcriptions)
    assert 0 <= doc.token_row.min() and doc.token_row.max() < len(doc.table)
    assert not doc.table.view(np.uint8)[:, 63].any()
    lines = doc.word_lines.tolist()
    assert doc.word_lines.dtype == np.intp and len(lines) == n and not doc.word_lines.flags.writeable
    assert lines[0] == 0 and all(b - a in (0, 1) for a, b in zip(lines, lines[1:]))
    assert doc.num_lines == lines[-1] + 1
    assert doc.line_starts.tolist() == [lines.index(i) for i in range(doc.num_lines)]
    for w in doc.words:
        assert w.line_index == lines[w.word_index]
        assert w.bbox is None or (len(w.bbox) == 4 and all(math.isfinite(x) for x in w.bbox))


class TestLoadMutatedCollection:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_loads_valid_collection_or_names_the_fault(self, tmp_path_factory, data):
        """Mutations delete, retype or set a field, shift an integer (a word
        or line index, or a line span's end) or put a non-finite number in a
        bbox.  The file must then load into valid documents or raise a
        ValueError that names a document or field."""
        collection = json.loads(json.dumps(MUTABLE))
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            kind = data.draw(st.sampled_from(["delete", "retype", "set", "shift", "bbox"]), label="kind")
            target, key = data.draw(st.sampled_from(field_locations(collection)), label="field")
            value = target[key]
            if kind == "delete":
                del target[key]
            elif kind == "shift" and type(value) is int:
                target[key] = value + data.draw(st.sampled_from([-2, -1, 1, 2]), label="shift")
            elif kind == "bbox" and "word_index" in target:
                box = [1.0, 2.0, 3.0, 4.0]
                bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="non-finite")
                box[data.draw(st.integers(0, 3), label="position")] = bad
                target["bbox"] = box
            else:  # "set" may keep the type, "retype" may not
                same = kind == "set"
                values = st.one_of(*(v for t, v in VALUES_BY_TYPE.items() if same or t is not type(value)))
                target[key] = data.draw(values, label="value")
        path = tmp_path_factory.mktemp("mutated") / "collection.json"
        path.write_text(json.dumps(collection))
        try:
            loaded = load_collection(path)
        except ValueError as e:
            event("rejected")
            assert re.search(r"document|field|doc_id", str(e)), str(e)
        else:
            event("loaded")
            docs = loaded.ordered()
            for doc in docs:
                assert_document_invariants(doc)
            index = loaded.index  # token_type None maps token i to type i
            mapped = index.planes.shape[1] if index.token_type is None else len(index.token_type)
            assert mapped == sum(len(d) for d in docs)
            for entry in collection["documents"]:  # what loaded must agree with the file
                words = loaded[entry["doc_id"]].words
                assert [(w["word_index"], w["line_index"]) for w in entry["words"]] == [
                    (w.word_index, w.line_index) for w in words
                ]
                texts = [corpus.normalize_token(w["text"]) for w in entry["words"]]
                assert texts == [w.transcription for w in words]
                doc = loaded[entry["doc_id"]]
                spans = [(i, min(ids), max(ids)) for i in range(doc.num_lines) for ids in [doc.word_ids_of_lines(i, i)]]
                assert sorted((ln["line_index"], ln["start_word"], ln["end_word"]) for ln in entry["lines"]) == spans


VALID_QUESTIONS = {
    "questions": [
        {"question_id": "q1", "text": "dear sir", "gold_doc_id": "a", "gold_start_word": 0, "gold_end_word": 1},
        {"question_id": "q2", "text": "hello", "gold_doc_id": "b", "gold_start_word": 0, "gold_end_word": 0},
    ]
}
MALFORMED_QUESTIONS = {
    "questions-integer": (set_field(["questions"], 5), r"top level: field 'questions' must be a list, not int"),
    "questions-missing": (set_field(["questions"], DELETE), r"top level: field 'questions' is missing"),
    "question-not-object": (set_field(["questions", 1], "q2"), r"question 1 is not an object"),
    "id-missing": (set_field(["questions", 1, "question_id"], DELETE), r"question 1: field 'question_id' is missing"),
    "id-integer": (set_field(["questions", 0, "question_id"], 7), r"question 0: field 'question_id' must be a string, not 7"),
    "text-missing": (set_field(["questions", 1, "text"], DELETE), r"question 'q2': field 'text' is missing"),
    "text-integer": (set_field(["questions", 0, "text"], 7), r"question 'q1': field 'text' must be a string, not 7"),
    "text-list": (set_field(["questions", 0, "text"], ["dear"]), r"question 'q1': field 'text' must be a string, not \['dear'\]"),
    "text-no-tokens": (set_field(["questions", 0, "text"], "?!"), r"question 'q1': field 'text': question has no usable tokens"),
    "doc-id-list": (set_field(["questions", 0, "gold_doc_id"], ["a"]), r"question 'q1': field 'gold_doc_id' must be a string"),
    "doc-id-unknown": (set_field(["questions", 0, "gold_doc_id"], "zz"), r"question 'q1': unknown gold_doc_id 'zz'"),
    "start-missing": (set_field(["questions", 0, "gold_start_word"], DELETE), r"question 'q1': field 'gold_start_word' is missing"),
    "start-bool": (set_field(["questions", 0, "gold_start_word"], True), r"question 'q1': field 'gold_start_word' must be an integer, not True"),
    "start-string": (set_field(["questions", 0, "gold_start_word"], "0"), r"question 'q1': field 'gold_start_word' must be an integer, not '0'"),
    "end-float": (set_field(["questions", 1, "gold_end_word"], 0.0), r"question 'q2': field 'gold_end_word' must be an integer, not 0.0"),
    "end-bool": (set_field(["questions", 1, "gold_end_word"], False), r"question 'q2': field 'gold_end_word' must be an integer, not False"),
    "span-outside": (set_field(["questions", 0, "gold_end_word"], 3), r"question 'q1': gold span \(0, 3\) outside document 'a'"),
    "id-repeated": (set_field(["questions", 1, "question_id"], "q1"), r"duplicate question_id 'q1'"),
}


class TestLoadQuestions:
    def test_valid(self, tmp_path):
        collection = load_collection(write_json(tmp_path, VALID))
        questions = load_questions(write_json(tmp_path, VALID_QUESTIONS, "q.json"), collection)
        assert [(q.question_id, q.tokens, q.gold_word_span, q.gold_line_span) for q in questions] == [
            ("q1", ("dear", "sir"), (0, 1), (0, 0)),
            ("q2", ("hello",), (0, 0), (0, 0)),
        ]

    @pytest.mark.parametrize("mutate, message", MALFORMED_QUESTIONS.values(), ids=MALFORMED_QUESTIONS.keys())
    def test_malformed_field_named(self, tmp_path, mutate, message):
        collection = load_collection(write_json(tmp_path, VALID))
        data = json.loads(json.dumps(VALID_QUESTIONS))
        mutate(data)
        with pytest.raises(ValueError, match=message):
            load_questions(write_json(tmp_path, data, "q.json"), collection)

    def test_malformed_json_names_the_file(self, tmp_path):
        collection = load_collection(write_json(tmp_path, VALID))
        path = tmp_path / "q.json"
        path.write_text('{"questions": [\n')
        with pytest.raises(json.JSONDecodeError, match=f"^{re.escape(str(path))}: Expecting value: line 2 column 1"):
            load_questions(path, collection)

    def test_nesting_too_deep_names_the_file(self, tmp_path):
        collection = load_collection(write_json(tmp_path, VALID))
        path = write_deeply_nested(tmp_path, "questions")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: JSON nested too deeply"):
            load_questions(path, collection)

    def test_top_level_not_object(self, tmp_path):
        collection = load_collection(write_json(tmp_path, VALID))
        with pytest.raises(ValueError, match="question file must be a JSON object, not list"):
            load_questions(write_json(tmp_path, VALID_QUESTIONS["questions"], "q.json"), collection)

    def test_encodes_no_token(self, tmp_path, monkeypatch):
        collection, questions = generate(GeneratorSpec(num_documents=4, num_questions=3, vocab_size=60, seed=9))
        write_questions(questions, tmp_path / "q.json")

        def encode(text):
            raise AssertionError(f"encoded {text!r}")

        monkeypatch.setattr(corpus, "phoc_encode", encode)
        assert load_questions(tmp_path / "q.json", collection) == questions


QUESTION_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.floats(), st.text(max_size=4),
    st.sampled_from(["a", "b", "q1", "q2", "dear", "the", "?!"]), st.lists(st.integers(0, 3), max_size=3),
)


class TestLoadMutatedQuestions:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_loads_consistent_questions_or_names_the_fault(self, tmp_path_factory, data):
        """1-3 mutations delete or set a field, shift an integer, replace a
        question or drop the list.  The file must then load into questions
        that agree with it and with the collection, or raise a ValueError
        naming the question or field."""
        directory = tmp_path_factory.mktemp("questions")
        collection = load_collection(write_json(directory, VALID))
        file = json.loads(json.dumps(VALID_QUESTIONS))
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            kind = data.draw(st.sampled_from(["delete", "set", "shift", "question", "list"]), label="kind")
            questions = file.get("questions")
            if kind == "list" or not isinstance(questions, list) or not questions:
                file["questions"] = data.draw(st.one_of(QUESTION_VALUES, st.just([])), label="questions")
                continue
            position = data.draw(st.integers(0, len(questions) - 1), label="position")
            if kind == "question" or not isinstance(questions[position], dict) or not questions[position]:
                questions[position] = data.draw(QUESTION_VALUES, label="question")
                continue
            q = questions[position]
            key = data.draw(st.sampled_from(sorted(q)), label="key")
            if kind == "delete":
                del q[key]
            elif kind == "shift" and type(q[key]) is int:
                q[key] += data.draw(st.sampled_from([-2, -1, 1, 2]), label="shift")
            else:
                q[key] = data.draw(QUESTION_VALUES, label="value")
        try:
            loaded = load_questions(write_json(directory, file, "q.json"), collection)
        except ValueError as e:
            event("rejected")
            assert re.search(r"question|field", str(e)), str(e)
        else:
            event("loaded")
            assert len(loaded) == len(file["questions"])
            assert len({q.question_id for q in loaded}) == len(loaded)
            for q, entry in zip(loaded, file["questions"]):
                doc = collection[q.gold_doc_id]
                assert (q.question_id, q.text, q.gold_doc_id) == (entry["question_id"], entry["text"], entry["gold_doc_id"])
                assert q.gold_word_span == (entry["gold_start_word"], entry["gold_end_word"])
                assert 0 <= q.gold_word_span[0] <= q.gold_word_span[1] < len(doc)
                assert q.gold_line_span == tuple(doc.line_of_word(w) for w in q.gold_word_span)
                assert q.tokens == tuple(query_tokens(q.text)) and q.tokens


class TestPreprocessQuery:
    def test_stopwords_removed(self):
        tokens, phocs = preprocess_query("Who wrote the letter?")
        assert tokens == ["wrote", "letter"]
        assert len(phocs) == 2
        np.testing.assert_array_equal(phocs[0], phoc_encode("wrote"))

    def test_no_stopwords(self):
        assert preprocess_query("panopticon")[0] == ["panopticon"]

    def test_all_stopword_fallback(self):
        assert preprocess_query("What is it?")[0] == ["what", "is", "it"]

    def test_empty_question(self):
        with pytest.raises(ValueError):
            preprocess_query("?! ...")

    def test_never_returns_stopword_when_content_survives(self):
        tokens, _ = preprocess_query("where is the big panopticon in the town")
        assert any(t not in NORMALIZED_STOPWORDS for t in tokens)
        assert all(t not in NORMALIZED_STOPWORDS for t in tokens)

    def test_stopword_snapshot_size(self):
        assert len(STOPWORDS) == 179


class TestCorruptPhoc:
    def test_identity_at_zero(self, rng):
        v = phoc_encode("panopticon")
        np.testing.assert_array_equal(corrupt_phoc(v, 0.0, rng), v)

    def test_complement_at_one(self, rng):
        v = phoc_encode("panopticon")
        np.testing.assert_array_equal(corrupt_phoc(v, 1.0, rng), 1.0 - v)

    def test_seed_reproducibility(self):
        v = phoc_encode("cat")
        a = corrupt_phoc(v, 0.3, np.random.default_rng(7))
        b = corrupt_phoc(v, 0.3, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_mean_hamming_distance(self):
        # binomial(504, 0.1): mean 50.4, sd ~6.7; mean of 10k trials
        v = phoc_encode("benthamqa")
        rng = np.random.default_rng(11)
        dists = [np.sum(corrupt_phoc(v, 0.1, rng) != v) for _ in range(10_000)]
        se = np.sqrt(504 * 0.1 * 0.9) / np.sqrt(len(dists))
        assert abs(np.mean(dists) - 50.4) < 3 * se

    def test_rejects_bad_rate(self, rng):
        with pytest.raises(ValueError):
            corrupt_phoc(phoc_encode("a"), 1.5, rng)

    def test_rejects_non_binary(self, rng):
        with pytest.raises(ValueError):
            corrupt_phoc(np.full(PHOC_DIM, 0.5), 0.1, rng)


class TestCorruptCollection:
    def test_matches_per_word_corrupt_phoc(self):
        collection, _ = generate(GeneratorSpec(num_documents=6, num_questions=3, vocab_size=60, seed=5))
        for rate in (0.05, 0.2, 0.5):
            noisy = corrupt_collection(collection, rate, np.random.default_rng(31))
            rng = np.random.default_rng(31)
            for doc in collection.ordered():
                for w, n in zip(doc.words, noisy[doc.doc_id].words):
                    np.testing.assert_array_equal(n.phoc, corrupt_phoc(w.phoc, rate, rng))
                    assert (n.word_index, n.line_index, n.transcription, n.bbox) == (
                        w.word_index, w.line_index, w.transcription, w.bbox
                    )

    def test_zero_rate_returns_input(self, rng):
        c = make_collection({"d": [["one"]]})
        assert corrupt_collection(c, 0.0, rng) is c

    def test_rejects_bad_rate(self, rng):
        with pytest.raises(ValueError, match="flip_rate"):
            corrupt_collection(make_collection({"d": [["one"]]}), 1.5, rng)

    def test_rejects_non_binary_naming_document(self):
        # a row with padding bits cannot reach corrupt_collection: the
        # document holding it is rejected when it is built
        doc = make_collection({"d": [["one", "two"]]})["d"]
        rows = rows_with_bit_set(doc, 1, 508)
        with pytest.raises(ValueError, match="document 'd': PHOC of word 1 has padding bits set"):
            replace(doc, table=rows)


class TestDocument:
    """The constructor rejects what load_collection rejects, naming the
    document and, for a bbox or a transcription, the word."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"bboxes": (("x", 1, 2, 3), (math.nan, 0, 0, 0))}, r"document 'a': word 0 field 'bbox' must be 4 finite numbers, not \('x', 1, 2, 3\)$"),
            ({"bboxes": (None, (math.nan, 0, 0, 0))}, r"document 'a': word 1 field 'bbox' must be 4 finite numbers, not \(nan, 0, 0, 0\)$"),
            ({"bboxes": (None, [0, 0, 10**400, 1])}, r"document 'a': word 1 field 'bbox' must be 4 finite numbers"),
            ({"bboxes": ((0, 0, True, 1), None)}, r"document 'a': word 0 field 'bbox' must be 4 finite numbers"),
            ({"bboxes": ((0, 0, 1), None)}, r"document 'a': word 0 field 'bbox' must be 4 finite numbers"),
            ({"bboxes": "z"}, r"document 'a': bboxes must be a tuple or None, not 'z'$"),
            ({"bboxes": ((0, 0, 1, 1),)}, r"document 'a': 1 bboxes for 2 words$"),
            ({"doc_id": 5}, r"document 5: doc_id must be a string$"),
            ({"transcriptions": (1, 2)}, r"document 'a': word 0 transcription must be a string, not 1$"),
            ({"transcriptions": ["one", b"two"]}, r"document 'a': word 1 transcription must be a string, not b'two'$"),
            # two characters for two words: tuple("xy") would pass every other check
            ({"transcriptions": "xy"}, r"document 'a': transcriptions must be a sequence of strings, not 'xy'$"),
        ],
        ids=[
            "bbox-string", "bbox-nan", "bbox-huge-int", "bbox-bool", "bbox-three-numbers", "bboxes-string",
            "bboxes-short", "doc-id-int", "transcription-int", "transcription-bytes", "transcriptions-string",
        ],
    )
    def test_rejects_what_the_loader_rejects(self, fields, message):
        doc = make_collection({"a": [["one", "two"]]})["a"]
        with pytest.raises(ValueError, match=message):
            replace(doc, **fields)

    def test_bboxes_write_and_load_back(self, tmp_path):
        # int, float and missing bboxes, given as lists or tuples, come back as tuples of the same numbers
        doc = replace(make_collection({"a": [["one", "two"], ["three"]]})["a"], bboxes=((0, 1, 2, 3), None, [0.5, 1.25, 2, 1e300]))
        assert doc.bboxes == ((0, 1, 2, 3), None, (0.5, 1.25, 2, 1e300))
        write_collection(Collection({"a": doc}), tmp_path / "c.json")
        loaded = load_collection(tmp_path / "c.json")["a"]
        assert loaded.bboxes == doc.bboxes
        assert [[type(x) for x in b] for b in loaded.bboxes if b] == [[int] * 4, [float, float, int, float]]

    def test_transcription_list_stored_as_tuple_writes_and_loads_back(self, tmp_path):
        # a list given to the constructor is copied, so changing it afterwards changes nothing
        texts = ["one", "two", "three"]
        doc = replace(make_collection({"a": [["one", "two"], ["three"]]})["a"], transcriptions=texts)
        texts[0] = 1
        assert doc.transcriptions == ("one", "two", "three")
        write_collection(Collection({"a": doc}), tmp_path / "c.json")
        assert load_collection(tmp_path / "c.json")["a"].transcriptions == doc.transcriptions


def test_collection_key_must_be_doc_id():
    doc = make_collection({"doc_0003": [["one"]]})["doc_0003"]
    with pytest.raises(ValueError, match="collection key 'zdoc_0003' holds document 'doc_0003'"):
        Collection({"zdoc_0003": doc})


def test_collection_documents_read_only():
    docs = {"d": make_collection({"d": [["one"]]})["d"]}
    c = Collection(docs)
    docs["e"] = docs["d"]
    assert list(c.documents) == ["d"]
    with pytest.raises(TypeError):
        c.documents["e"] = docs["d"]


class TestPackedWords:
    def test_phoc_unpacks_phoc_encode(self, rng):
        for _ in range(500):
            text = random_word(rng, 1, 40)
            phoc = Word(0, 0, text, phoc_table([text])[0]).phoc
            assert phoc.dtype == np.float64 and phoc.flags.writeable
            np.testing.assert_array_equal(phoc, phoc_encode(text))

    def test_phoc_is_a_fresh_array(self):
        word = Word(0, 0, "x", phoc_table(["x"])[0])
        word.phoc[:] = 0.0
        np.testing.assert_array_equal(word.phoc, phoc_encode("x"))

    def test_packers_reject_non_binary(self):
        half = np.full(PHOC_DIM, 0.5)
        with pytest.raises(ValueError, match="vector 0 is not binary"):
            pack_phocs([half])
        with pytest.raises(ValueError, match="vector 1 is not binary"):
            pack_phocs([phoc_encode("a"), half])

    def test_rows_are_read_only_64_bytes(self, tmp_path, rng):
        collection, _ = generate(GeneratorSpec(num_documents=6, num_questions=3, vocab_size=60, seed=5))
        write_collection(collection, tmp_path / "c.json")
        loaded = load_collection(tmp_path / "c.json")
        for c in (collection, loaded, corrupt_collection(loaded, 0.2, rng)):
            for doc in c.ordered():
                for w in doc.words:
                    assert (w.packed.dtype, w.packed.shape, w.packed.nbytes) == (np.uint64, (PACKED_WORDS,), 64)
                    assert not w.packed.flags.writeable
                    assert not w.packed.view(np.uint8)[63]  # padding bits clear

    def test_corrupted_collection_holds_no_float_array(self, rng):
        collection, _ = generate(GeneratorSpec(num_documents=6, num_questions=3, vocab_size=60, seed=5))
        noisy = corrupt_collection(collection, 0.2, rng)
        seen, stack, arrays = {id(noisy)}, [noisy], []
        while stack:
            obj = stack.pop()
            referents = gc.get_referents(obj)
            if isinstance(obj, np.ndarray):
                arrays.append(obj)
                referents.append(obj.base)
            for r in referents:
                if r is not None and id(r) not in seen and not isinstance(r, (type, types.ModuleType, types.FunctionType)):
                    seen.add(id(r))
                    stack.append(r)
        assert all(any(a is doc.table for a in arrays) for doc in noisy.ordered())
        assert all(a.dtype != np.float64 for a in arrays)


def test_loaders_build_the_index(tmp_path, rng):
    c = load_collection(write_json(tmp_path, VALID))
    assert "index" in vars(c)
    assert "index" in vars(corrupt_collection(c, 0.1, rng))


def test_index_token_type_is_none_only_when_each_token_is_its_own_type(tmp_path, rng):
    # distinct words, written in doc_id order: the stacked rows are the tokens in order
    assert load_collection(write_json(tmp_path, VALID)).index.token_type is None
    # the same words with the documents written in the other order: rows are numbered
    # in file order, tokens in doc_id order
    swapped = {"documents": VALID["documents"][::-1]}
    np.testing.assert_array_equal(load_collection(write_json(tmp_path, swapped)).index.token_type, [1, 2, 3, 0])
    repeated, _ = generate(GeneratorSpec(num_documents=6, num_questions=3, vocab_size=60, seed=5))
    np.testing.assert_array_equal(
        repeated.index.token_type, np.concatenate([d.token_row for d in repeated.ordered()])
    )
    noisy = corrupt_collection(repeated, 0.1, rng)
    assert noisy.index.token_type is None
    assert noisy.index.planes.shape[1] == sum(len(d) for d in noisy.ordered())


def test_index_of_shared_table_scores_as_index_of_copies():
    shared, _ = generate(GeneratorSpec(num_documents=6, num_questions=3, vocab_size=60, seed=5))
    copies = Collection({
        d.doc_id: replace(d, table=d.table.copy())
        for d in shared.ordered()
    })
    a, b = shared.index, copies.index
    table = shared.ordered()[0].table
    np.testing.assert_array_equal(a.planes, table.view(np.uint8).T)  # the shared table once
    np.testing.assert_array_equal(b.planes, np.concatenate([table] * len(shared)).view(np.uint8).T)  # each copy
    words = sorted({t for d in shared.ordered() for t in d.transcriptions})
    for w in words:
        query = [phoc_encode(w)]
        assert index_maxima(a, query, a.offsets).tobytes() == index_maxima(b, query, b.offsets).tobytes(), w


@pytest.mark.parametrize(
    "token_row, message",
    [
        (np.array([0, 3]), "token map points outside its 2-row PHOC table"),
        (np.array([-1, 0]), "token map points outside its 2-row PHOC table"),
        (np.array([0]), r"token map is not a \(2,\) intp array"),
        (np.array([0.0, 1.0]), r"token map is not a \(2,\) intp array"),
        ([0, 1], r"token map is not a \(2,\) intp array"),
    ],
    ids=["past-end", "negative", "short", "float", "list"],
)
def test_malformed_token_map_named(token_row, message):
    doc = make_collection({"d": [["one", "two"]]})["d"]
    with pytest.raises(ValueError, match="document 'd': " + message):
        replace(doc, token_row=token_row)


@pytest.mark.parametrize(
    "word_lines, message",
    [
        (np.array([0, 2, 2]), r"word 1 has line_index 2 after 0 \(line indices must be 0-based and consecutive\)"),
        (np.array([0, 1, 0]), r"word 2 has line_index 0 after 1 \(line indices must be 0-based and consecutive\)"),
        (np.array([0, 1]), r"line column is not a \(3,\) intp array"),
        (np.array([1, 1, 2]), r"word 0 has line_index 1, not 0"),
        (np.array([0, 1, 2], dtype=np.int32), r"line column is not a \(3,\) intp array"),
        (np.array([0.0, 1.0, 2.0]), r"line column is not a \(3,\) intp array"),
        ([0, 1, 2], r"line column is not a \(3,\) intp array"),
    ],
    ids=["gap", "overlap", "short", "not-zero-based", "int32", "float", "list"],
)
def test_malformed_lines_named(word_lines, message):
    doc = make_collection({"d": [["one"], ["two"], ["three"]]})["d"]
    with pytest.raises(ValueError, match="document 'd': " + message):
        replace(doc, word_lines=word_lines)


def test_document_freezes_its_arrays():
    doc = make_collection({"d": [["one", "two"]]})["d"]
    word_lines, table, token_row = np.array([0, 1]), doc.rows, np.array([1, 0])
    other = replace(doc, word_lines=word_lines, table=table, token_row=token_row)
    assert other.table is table and not table.flags.writeable and not token_row.flags.writeable
    assert other.word_lines is word_lines and not word_lines.flags.writeable
    assert not other.line_starts.flags.writeable
    assert [w.transcription for w in other.words] == ["one", "two"]
    np.testing.assert_array_equal(other.rows, doc.rows[::-1])


def test_collection_helpers():
    c = make_collection({"d": [["one", "two"], ["three"]]})
    doc = c["d"]
    assert doc.num_lines == 2
    assert doc.line_starts.tolist() == [0, 2]
    assert doc.line_of_word(2) == 1
    assert doc.word_ids_of_lines(0, 0) == {0, 1}
    assert doc.word_ids_of_lines(0, 1) == {0, 1, 2}
