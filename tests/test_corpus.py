import json
from dataclasses import replace

import numpy as np
import pytest

from phocqa.corpus import (
    Collection,
    corrupt_collection,
    corrupt_phoc,
    load_collection,
    load_questions,
    preprocess_query,
    write_collection,
    write_questions,
)
from phocqa.phoc import PHOC_DIM, phoc_encode
from phocqa.stopwords import NORMALIZED_STOPWORDS, STOPWORDS
from phocqa.synth import GeneratorSpec, generate

from conftest import make_collection

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


def write_json(tmp_path, data, name="collection.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


class TestLoadCollection:
    def test_valid_roundtrip(self, tmp_path):
        c = load_collection(write_json(tmp_path, VALID))
        assert len(c) == 2
        doc = c["a"]
        assert [w.transcription for w in doc.words] == ["dear", "sir", "thanks"]
        assert doc.words[1].bbox == (1, 2, 30, 10)
        np.testing.assert_array_equal(doc.words[0].phoc, phoc_encode("dear"))

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
        with pytest.raises(ValueError, match=r"'a': line_index 5 at position 1"):
            load_collection(write_json(tmp_path, data))

    def test_one_read_only_phoc_per_word_type(self, tmp_path):
        data = json.loads(json.dumps(VALID))
        data["documents"][1]["words"][0]["text"] = "Dear"
        c = load_collection(write_json(tmp_path, data))
        shared = c["a"].words[0].phoc
        assert c["b"].words[0].phoc is shared
        assert c["a"].words[1].phoc is not shared
        assert not shared.flags.writeable
        np.testing.assert_array_equal(shared, phoc_encode("dear"))

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(json.JSONDecodeError):
            load_collection(p)

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
            assert doc.lines == other.lines
            for a, b in zip(doc.words, other.words):
                np.testing.assert_array_equal(a.phoc, b.phoc)
        assert load_questions(qpath, reloaded) == questions


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

    def test_rejects_non_binary_naming_document(self, rng):
        c = make_collection({"d": [["one"]]})
        doc = c["d"]
        bad = Collection({"d": replace(doc, words=(replace(doc.words[0], phoc=np.full(PHOC_DIM, 0.5)),))})
        with pytest.raises(ValueError, match="'d'"):
            corrupt_collection(bad, 0.1, rng)


def test_collection_documents_read_only():
    docs = {"d": make_collection({"d": [["one"]]})["d"]}
    c = Collection(docs)
    docs["e"] = docs["d"]
    assert list(c.documents) == ["d"]
    with pytest.raises(TypeError):
        c.documents["e"] = docs["d"]


def test_loaders_build_the_index(tmp_path, rng):
    c = load_collection(write_json(tmp_path, VALID))
    assert "index" in vars(c)
    assert "index" in vars(corrupt_collection(c, 0.1, rng))


def test_index_of_shared_vectors_equals_index_of_copies():
    shared, _ = generate(GeneratorSpec(num_documents=6, num_questions=3, vocab_size=60, seed=5))
    copies = Collection({
        d.doc_id: replace(d, words=tuple(replace(w, phoc=w.phoc.copy()) for w in d.words))
        for d in shared.ordered()
    })
    a, b = shared.index, copies.index
    assert a.types.shape[1] < len(a.token_type)
    for field_a, field_b in zip(vars(a).values(), vars(b).values()):
        np.testing.assert_array_equal(field_a, field_b)


def test_collection_helpers():
    c = make_collection({"d": [["one", "two"], ["three"]]})
    doc = c["d"]
    assert doc.num_lines == 2
    assert doc.line_of_word(2) == 1
    assert doc.word_ids_of_lines(0, 0) == {0, 1}
    assert doc.word_ids_of_lines(0, 1) == {0, 1, 2}
