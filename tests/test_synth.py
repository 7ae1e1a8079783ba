import numpy as np
import pytest

from phocqa.corpus import load_collection, write_collection
from phocqa.phoc import phoc_encode
from phocqa.retriever import rank_collection
from phocqa.synth import GeneratorSpec, generate


class TestGeneratorSpec:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            GeneratorSpec(lines_per_document=(3, 1))
        with pytest.raises(ValueError):
            GeneratorSpec(words_per_line=(0, 2))

    def test_rejects_negative_num_questions(self):
        with pytest.raises(ValueError, match="num_questions must be >= 0, got -1"):
            GeneratorSpec(num_questions=-1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            GeneratorSpec(seed=-1)

    def test_zero_questions_valid(self):
        collection, questions = generate(GeneratorSpec(num_documents=3, num_questions=0, vocab_size=20, seed=1))
        assert len(collection) == 3 and questions == []

    def test_rejects_small_vocab(self):
        with pytest.raises(ValueError, match="vocab"):
            generate(GeneratorSpec(num_questions=50, vocab_size=100))


class TestGenerate:
    def test_single_document_question(self):
        collection, questions = generate(
            GeneratorSpec(num_documents=1, num_questions=1, vocab_size=20, seed=1)
        )
        q = questions[0]
        doc = collection[q.gold_doc_id]
        span_words = [
            doc.words[i].transcription for i in range(q.gold_word_span[0], q.gold_word_span[1] + 1)
        ]
        assert list(q.tokens) == span_words

    def test_transcriptions_are_plain_str(self):
        collection, questions = generate(GeneratorSpec(num_documents=6, num_questions=4, vocab_size=60, seed=3))
        assert all(type(w.transcription) is str for doc in collection.ordered() for w in doc.words)
        assert all(type(t) is str for q in questions for t in q.tokens)

    def test_same_seed_identical(self):
        a = generate(GeneratorSpec(num_documents=4, num_questions=3, vocab_size=50, seed=77))
        b = generate(GeneratorSpec(num_documents=4, num_questions=3, vocab_size=50, seed=77))
        assert a[1] == b[1]
        for did in a[0].documents:
            for wa, wb in zip(a[0][did].words, b[0][did].words):
                assert wa.transcription == wb.transcription
                np.testing.assert_array_equal(wa.phoc, wb.phoc)

    def test_markers_globally_unique(self):
        collection, questions = generate(
            GeneratorSpec(num_documents=10, num_questions=8, vocab_size=100, seed=3)
        )
        all_words = {
            did: [w.transcription for w in doc.words] for did, doc in collection.documents.items()
        }
        for q in questions:
            for marker in q.tokens:
                containing = [did for did, ws in all_words.items() if marker in ws]
                assert containing == [q.gold_doc_id]
                assert all_words[q.gold_doc_id].count(marker) == 1

    def test_gold_spans_consistent(self):
        collection, questions = generate(
            GeneratorSpec(num_documents=5, num_questions=5, vocab_size=80, seed=4)
        )
        for q in questions:
            doc = collection[q.gold_doc_id]
            assert 0 <= q.gold_word_span[0] <= q.gold_word_span[1] < len(doc.words)
            assert q.gold_line_span == (
                doc.line_of_word(q.gold_word_span[0]),
                doc.line_of_word(q.gold_word_span[1]),
            )

    def test_unique_markers_give_top1(self):
        collection, questions = generate(
            GeneratorSpec(num_documents=30, num_questions=10, vocab_size=200, seed=5)
        )
        for q in questions:
            query = [phoc_encode(t) for t in q.tokens]
            top = rank_collection(collection, query, k=1)[0]
            assert top.doc_id == q.gold_doc_id
            assert top.score == pytest.approx(1.0)

    def test_serialized_output_validates(self, tmp_path):
        collection, _ = generate(
            GeneratorSpec(num_documents=6, num_questions=4, vocab_size=60, seed=8)
        )
        path = tmp_path / "c.json"
        write_collection(collection, path)
        reloaded = load_collection(path)
        assert len(reloaded) == 6
