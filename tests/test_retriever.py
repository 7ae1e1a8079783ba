import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phocqa import retriever
from phocqa.corpus import PACKED_WORDS, Collection, Document, build_index, corrupt_collection, pack_phocs, unpack_phocs
from phocqa.phoc import PHOC_DIM, phoc_encode
from phocqa.retriever import rank_collection, segment_maxima, similarities, top_k
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


def packed_rows(planes):
    """The (V, PACKED_WORDS) uint64 packed row of each column of `planes`."""
    return np.ascontiguousarray(planes.T).view(np.uint64)


def full_width_similarities(planes, counts, query):
    """similarities as one full-width expression over packed rows: every
    query row against all the packed rows of `planes` at once, then the
    cosine over the exact dots."""
    rows = packed_rows(planes)
    qrows, qcounts = pack_phocs(query)
    dots = np.stack([np.bitwise_count(rows & q).sum(axis=1) for q in qrows])
    return dots / np.sqrt(np.maximum(np.multiply.outer(qcounts, counts), 1))


class TestSegmentMaxima:
    @staticmethod
    def row_major_maxima(index, query, starts):
        """The kernel over one packed row per type, summing each row's
        popcounts along the row."""
        rows = packed_rows(index.planes)
        qrows, qcounts = pack_phocs(query)
        dots = np.stack([np.bitwise_count(rows & q).sum(axis=1) for q in qrows], axis=1)
        sims = dots / np.sqrt(np.maximum(np.outer(index.counts, qcounts), 1))
        per_token = sims if index.token_type is None else sims[index.token_type]
        return np.maximum.reduceat(per_token, starts, axis=0)

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
        got = segment_maxima(similarities(rows.view(np.uint8).T, np.bitwise_count(rows).sum(axis=1), query), starts)
        assert got.flags.c_contiguous
        assert got.tobytes() == self.row_major_maxima(build_index([doc]), query, starts).tobytes()

    @pytest.mark.parametrize("flip_rate", [0.0, 0.2])
    def test_similarities_byte_identical_to_full_denominator(self, flip_rate):
        base, _ = generate(GeneratorSpec(num_documents=20, num_questions=3, vocab_size=120, seed=3))
        index = corrupt_collection(base, flip_rate, np.random.default_rng(3)).index
        # an empty column (count 0) and a full one (504) besides the collection's types
        extra = pack_phocs([np.zeros(PHOC_DIM), np.ones(PHOC_DIM)])[0]
        planes = np.ascontiguousarray(np.concatenate([index.planes, extra.view(np.uint8).T], axis=1))
        counts = np.bitwise_count(planes).sum(axis=0)
        query = [phoc_encode("panopticon"), np.zeros(PHOC_DIM), np.ones(PHOC_DIM), phoc_encode("x")]
        expected = full_width_similarities(planes, counts, query)
        for given_counts in (counts, counts.astype(np.intp)):
            got = similarities(planes, given_counts, query)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == expected.tobytes()
        assert not got[1].any() and not got[:, -2].any()  # the zero row and the empty column

    def test_all_ones_word_scores_exactly_one(self):
        # 504 set bits: a uint8 sum of the popcounts would wrap to 248
        ones = np.ones(PHOC_DIM)
        doc = Document("d", ("x",), np.zeros(1, dtype=np.intp), pack_phocs([ones])[0], np.zeros(1, dtype=np.intp))
        assert rank_collection(Collection({"d": doc}), [ones], k=1)[0].score == 1.0
        assert answer_attention(doc, [ones]).confidence == 1.0


LONG_WORD = "abcdefghijklmnopqrstuvwxyz0123456789" * 4  # 468 set bits: its dots need uint16


class TestBlocks:
    """similarities scores an input of at most retriever.BLOCK columns with
    one broadcast and a wider one plane by plane; the dots are exact
    integers, uint8 unless a query row has more than 255 set bits, so both
    branches give the same bytes."""

    QUERIES = {  # per query length, one set with uint8 dots and one with uint16
        1: [["panopticon"], [LONG_WORD]],
        3: [["", "panopticon", "x"], ["", "ones", LONG_WORD]],
    }

    @staticmethod
    def query(words):
        return [np.ones(PHOC_DIM) if w == "ones" else phoc_encode(w) for w in words]

    @staticmethod
    def random_rows(rng, width):
        # random PHOCs, the long word's, an empty one (count 0) and a full one (504)
        phocs = list(rng.integers(0, 2, (width - 3, PHOC_DIM)).astype(np.float64))
        return pack_phocs(phocs + [phoc_encode(LONG_WORD), np.zeros(PHOC_DIM), np.ones(PHOC_DIM)])

    @staticmethod
    def check(got, expected, words):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()
        assert not got[:, -2].any()  # the empty column
        for word, sims in zip(words, got):
            if word == "":
                assert not sims.any()
            elif word == "ones":
                assert sims[-1] == 1.0  # 504 shared bits
            elif word == LONG_WORD:
                assert sims[-3] == 1.0  # 468 shared bits: a uint8 dot would wrap to 212

    @pytest.mark.parametrize("width", [3, 4, 5, 14])  # BLOCK - 1, BLOCK, BLOCK + 1 and 3 * BLOCK + 2
    @pytest.mark.parametrize("query_len", [1, 3])
    def test_byte_identical_across_block_boundaries(self, monkeypatch, rng, width, query_len):
        monkeypatch.setattr(retriever, "BLOCK", 4)
        rows, counts = self.random_rows(rng, width)
        planes = np.ascontiguousarray(rows.view(np.uint8).T)
        assert pack_phocs([phoc_encode(LONG_WORD)])[1].tolist() == [468]
        for words in self.QUERIES[query_len]:
            query = self.query(words)
            self.check(similarities(planes, counts, query), full_width_similarities(planes, counts, query), words)

    def test_transposed_rows_as_answer_attention_passes_them(self, monkeypatch, rng):
        monkeypatch.setattr(retriever, "BLOCK", 4)
        for width in (4, 14):  # the broadcast and the plane loop
            rows, counts = self.random_rows(rng, width)
            strided = rows.view(np.uint8).T
            assert not strided.flags.c_contiguous
            planes = np.ascontiguousarray(strided)
            for words in self.QUERIES[3]:
                query = self.query(words)
                self.check(similarities(strided, counts, query), full_width_similarities(planes, counts, query), words)

    def test_index_planes_c_contiguous(self):
        base, _ = generate(GeneratorSpec(num_documents=30, num_questions=1, vocab_size=100, seed=2))
        noisy = corrupt_collection(base, 0.2, np.random.default_rng(2))
        for c in (base, noisy):
            planes = c.index.planes
            assert planes.dtype == np.uint8 and planes.flags.c_contiguous
            rows = np.concatenate([doc.rows for doc in c.ordered()])
            per_token = planes if c.index.token_type is None else planes[:, c.index.token_type]
            np.testing.assert_array_equal(per_token, rows.view(np.uint8).T)

    def test_rank_collection_beyond_one_block(self):
        # a corrupted collection: every token is its own column, more of them than one block
        base, _ = generate(GeneratorSpec(num_documents=190, num_questions=1, vocab_size=300, seed=5))
        c = corrupt_collection(base, 0.2, np.random.default_rng(5))
        assert c.index.token_type is None and c.index.planes.shape[1] > retriever.BLOCK
        words = sorted({w.transcription for doc in base.ordered() for w in doc.words})
        query = [phoc_encode(words[i]) for i in np.random.default_rng(5).integers(0, len(words), 3)]
        scores = TestSegmentMaxima.row_major_maxima(c.index, query, c.index.offsets).mean(axis=1)
        oracle = sorted(zip(c.index.doc_ids, scores.tolist()), key=lambda t: (-t[1], t[0]))
        results = rank_collection(c, query, k=len(c))
        assert [(r.doc_id, r.score) for r in results] == oracle

    def test_wide_branch_temporaries_bounded(self, rng):
        # a (64, V) AND temporary would take 64 bytes per column; the wide
        # branch needs the (1, V) dots, a V-byte scratch and the float64 result
        width = 4 * retriever.BLOCK
        planes = rng.integers(0, 256, (8 * PACKED_WORDS, width), dtype=np.uint8)
        counts = np.bitwise_count(planes).sum(axis=0, dtype=np.intp)
        query = [phoc_encode("panopticon")]
        tracemalloc.start()
        try:
            similarities(planes, counts, query)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * width


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

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 12, 13, 30, 199, 200, 250])
    def test_top_k_is_head_of_stable_sort(self, rng, k):
        # few distinct values, so ties straddle every k; 200 is past the
        # length below which numpy's default sort happens to be stable
        for n in (13, 200):
            for scores in (rng.integers(0, 4, n) / 3.0, np.zeros(n), rng.random(n)):
                expected = np.argsort(-scores, kind="stable")[:k]
                np.testing.assert_array_equal(top_k(scores, k), expected)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 9])
    def test_ties_across_kth_keep_doc_id_order(self, k):
        # each content under two or three ids, so equal scores cross the k-th place
        contents = [make_document("c", [words]) for words in (["alpha", "beta"], ["alpha"], ["gamma"])]
        docs = {f"d{i}": replace(contents[i % 3], doc_id=f"d{i}") for i in range(8)}
        c = Collection(docs)
        assert c.index.token_type is not None  # copies share their content's table
        for query in ([phoc_encode("alpha"), phoc_encode("beta")], [np.zeros(PHOC_DIM)]):
            full = rank_collection(c, query, k=len(c))
            assert [(r.doc_id, r.score) for r in full] == sorted(
                ((did, score_document(c[did], query)) for did in docs), key=lambda t: (-t[1], t[0])
            )
            head = rank_collection(c, query, k)
            assert head == full[: min(k, len(c))]
        # the all-zero query row scores every document 0, so ranks follow the ids
        assert [r.doc_id for r in head] == sorted(docs)[:k]
        assert {r.score for r in head} == {0.0}

    def test_determinism(self, rng):
        docs = {f"d{i}": [[random_word(rng, 1, 5) for _ in range(5)]] for i in range(10)}
        c = make_collection(docs)
        query = [phoc_encode("abc")]
        assert rank_collection(c, query, 5) == rank_collection(c, query, 5)
