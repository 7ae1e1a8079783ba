import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phocqa.corpus import Collection, Document, build_index, corrupt_collection, pack_phocs, unpack_phocs
from phocqa.phoc import PHOC_DIM, phoc_encode
from phocqa.retriever import rank_collection, segment_maxima, similarities
from phocqa.snippet_qa import answer_attention
from phocqa.synth import GeneratorSpec, generate

from conftest import index_maxima, make_collection, make_document, random_word, rows_with_bit_set, score_document
from oracles import doc_score_reference

word_lists = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=6), min_size=1, max_size=15
)
queries = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=6), min_size=1, max_size=4
)


class TestDocScore:
    def test_exact_match_scores_one(self):
        doc = make_document("d", [["the", "panopticon", "plan"]])
        assert score_document(doc, [phoc_encode("panopticon")]) == pytest.approx(1.0)

    def test_self_match_scores_exactly_one(self, rng):
        for _ in range(3000):
            w = random_word(rng, 1, 12)
            assert score_document(make_document("d", [[w]]), [phoc_encode(w)]) == 1.0, w

    def test_orthogonal_scores_zero(self):
        doc = make_document("d", [["aa", "aaa"]])
        assert score_document(doc, [phoc_encode("bb")]) == 0.0

    def test_matches_nested_loop_oracle(self, rng):
        for _ in range(20):
            doc_words = [random_word(rng, 1, 8) for _ in range(20)]
            query_words = [random_word(rng, 1, 8) for _ in range(3)]
            doc = make_document("d", [doc_words])
            query = [phoc_encode(w) for w in query_words]
            expected = doc_score_reference([w.phoc for w in doc.words], query)
            assert score_document(doc, query) == pytest.approx(expected, abs=1e-12)

    def test_empty_query_rejected(self):
        doc = make_document("d", [["a"]])
        with pytest.raises(ValueError):
            score_document(doc, [])

    @given(word_lists, queries)
    @settings(max_examples=150, deadline=None)
    def test_score_range(self, doc_words, query_words):
        doc = make_document("d", [doc_words])
        score = score_document(doc, [phoc_encode(w) for w in query_words])
        assert 0.0 <= score <= 1.0 + 1e-12

    @given(word_lists, queries, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariance(self, doc_words, query_words, rnd):
        query = [phoc_encode(w) for w in query_words]
        before = score_document(make_document("d", [doc_words]), query)
        shuffled = list(doc_words)
        rnd.shuffle(shuffled)
        after = score_document(make_document("d", [shuffled]), query)
        assert before == after

    @given(word_lists, queries, st.text(alphabet="abcdefghij", min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_append_monotonicity(self, doc_words, query_words, extra):
        query = [phoc_encode(w) for w in query_words]
        before = score_document(make_document("d", [doc_words]), query)
        after = score_document(make_document("d", [doc_words + [extra]]), query)
        # mathematically >=; BLAS reassociation leaves ulp-level jitter
        assert after >= before - 1e-12


class TestSegmentMaxima:
    @staticmethod
    def row_major_maxima(index, query, starts):
        """The kernel over one packed row per type, summing each row's
        popcounts along the row."""
        rows = np.ascontiguousarray(index.types.T)
        qrows, qcounts = pack_phocs(query)
        dots = np.stack([np.bitwise_count(rows & q).sum(axis=1) for q in qrows], axis=1)
        sims = dots / np.sqrt(np.maximum(np.outer(index.counts, qcounts), 1))
        return np.maximum.reduceat(sims[index.token_type], starts, axis=0)

    @pytest.mark.parametrize("flip_rate", [0.0, 0.2, 0.5])
    @pytest.mark.parametrize("query_len", [1, 3, 9])
    def test_byte_identical_to_row_major(self, flip_rate, query_len):
        base, _ = generate(GeneratorSpec(num_documents=30, num_questions=3, vocab_size=150, seed=query_len))
        c = corrupt_collection(base, flip_rate, np.random.default_rng(query_len))
        words = sorted({w.transcription for doc in base.ordered() for w in doc.words})
        rng = np.random.default_rng(int(flip_rate * 10))
        query = [phoc_encode(words[i]) for i in rng.integers(0, len(words), query_len)]
        got = index_maxima(c.index, query, c.index.offsets)
        assert got.flags.c_contiguous
        assert got.tobytes() == self.row_major_maxima(c.index, query, c.index.offsets).tobytes()
        doc = c.ordered()[0]
        starts = doc.line_starts
        # as answer_attention scores a document: its own rows, reduced per line
        rows = doc.rows
        got = segment_maxima(similarities(rows.T, np.bitwise_count(rows).sum(axis=1), query), starts)
        assert got.flags.c_contiguous
        assert got.tobytes() == self.row_major_maxima(build_index([doc]), query, starts).tobytes()

    def test_all_ones_word_scores_exactly_one(self):
        # 504 set bits: a uint8 sum of the popcounts would wrap to 248
        ones = np.ones(PHOC_DIM)
        doc = Document("d", ("x",), np.zeros(1, dtype=np.intp), pack_phocs([ones])[0], np.zeros(1, dtype=np.intp))
        assert rank_collection(Collection({"d": doc}), [ones], k=1)[0].score == 1.0
        assert answer_attention(doc, [ones]).confidence == 1.0


class TestRankCollection:
    def test_single_document(self):
        c = make_collection({"only": [["alpha", "beta"]]})
        results = rank_collection(c, [phoc_encode("alpha")], k=5)
        assert len(results) == 1
        assert results[0].doc_id == "only"
        assert results[0].rank == 1

    def test_tie_broken_by_doc_id(self):
        c = make_collection({"b": [["same"]], "a": [["same"]]})
        results = rank_collection(c, [phoc_encode("same")], k=2)
        assert [r.doc_id for r in results] == ["a", "b"]

    def test_matches_sort_oracle(self, rng):
        docs = {
            f"doc{i:02d}": [[random_word(rng, 1, 6) for _ in range(8)]] for i in range(50)
        }
        c = make_collection(docs)
        query = [phoc_encode(random_word(rng, 1, 6)) for _ in range(2)]
        results = rank_collection(c, query, k=50)
        oracle = sorted(
            ((did, score_document(c[did], query)) for did in docs),
            key=lambda t: (-t[1], t[0]),
        )
        assert [(r.doc_id, r.score) for r in results] == oracle
        assert [r.rank for r in results] == list(range(1, 51))

    def test_k_truncation(self):
        c = make_collection({"a": [["x"]], "b": [["y"]], "c": [["z"]]})
        assert len(rank_collection(c, [phoc_encode("x")], k=2)) == 2

    def test_bad_k(self):
        c = make_collection({"a": [["x"]]})
        with pytest.raises(ValueError):
            rank_collection(c, [phoc_encode("x")], k=0)

    @pytest.mark.parametrize("flip_rate", [0.0, 0.05, 0.2, 0.5])
    @pytest.mark.parametrize("query_len", [1, 7, 8, 9, 12])
    def test_equals_sorted_doc_scores(self, flip_rate, query_len):
        # 8 or more query rows take numpy's pairwise summation in the mean
        base, _ = generate(GeneratorSpec(num_documents=40, num_questions=5, vocab_size=200, seed=query_len))
        c = corrupt_collection(base, flip_rate, np.random.default_rng(query_len))
        words = sorted({w.transcription for doc in base.ordered() for w in doc.words})
        rng = np.random.default_rng(int(flip_rate * 100))
        query = [phoc_encode(words[i]) for i in rng.integers(0, len(words), query_len)]
        results = rank_collection(c, query, k=len(c))
        oracle = sorted(((did, score_document(c[did], query)) for did in c.documents), key=lambda t: (-t[1], t[0]))
        assert [(r.doc_id, r.score) for r in results] == oracle

    # Malformed documents cannot reach the retriever: Document rejects them
    # when it is built, naming the document.
    def test_empty_document_named(self):
        with pytest.raises(ValueError, match="document 'b' is empty"):
            Document("b", (), (), make_document("a", [["x"]]).table, np.zeros(0, dtype=np.intp))

    def test_non_binary_vector_named(self):
        doc = make_document("b", [["y", "z"]])
        rows = rows_with_bit_set(doc, 1, PHOC_DIM)
        with pytest.raises(ValueError, match="document 'b': PHOC of word 1 has padding bits set"):
            replace(doc, table=rows)

    @pytest.mark.parametrize("malform", ["half-row", "int64", "float-phoc", "list", "strided"])
    def test_malformed_row_named(self, malform):
        doc = make_document("b", [["y", "z"]])
        rows = doc.rows
        table = {
            "half-row": np.ascontiguousarray(rows[:, :4]),
            "int64": rows.astype(np.int64),
            "float-phoc": unpack_phocs(rows),
            "list": rows.tolist(),
            "strided": np.repeat(rows, 2, axis=0)[::2],
        }[malform]
        message = re.escape("document 'b': PHOC table is not a C-contiguous (rows, 8) uint64 array")
        with pytest.raises(ValueError, match=message):
            replace(doc, table=table)

    def test_empty_collection(self):
        with pytest.raises(ValueError, match="empty collection"):
            rank_collection(Collection({}), [phoc_encode("x")], k=1)

    def test_empty_query(self):
        with pytest.raises(ValueError, match="empty query"):
            rank_collection(make_collection({"a": [["x"]]}), [], k=1)

    def test_determinism(self, rng):
        docs = {f"d{i}": [[random_word(rng, 1, 5) for _ in range(5)]] for i in range(10)}
        c = make_collection(docs)
        query = [phoc_encode("abc")]
        assert rank_collection(c, query, 5) == rank_collection(c, query, 5)
