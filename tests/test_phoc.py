import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phocqa.phoc import ALPHABET, LEVELS, PHOC_DIM, normalize_token, phoc_encode

from conftest import make_document, score_document
from oracles import phoc_reference

words = st.text(alphabet=ALPHABET, min_size=1, max_size=12)


class TestNormalizeToken:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("The", "the"),
            ("don't", "dont"),
            ("1832.", "1832"),
            ("", ""),
            ("???", ""),
            ("Ångström", "ngstrm"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_token(raw) == expected

    @given(st.text())
    def test_output_alphabet(self, raw):
        assert all(c in ALPHABET for c in normalize_token(raw))


class TestPhocEncode:
    def test_empty_token_is_zero(self):
        assert not phoc_encode("").any()

    def test_dimension(self):
        assert phoc_encode("abc").shape == (PHOC_DIM,)
        assert PHOC_DIM == 504

    def test_ab_level2(self):
        # 'a' occupies [0, 0.5] = region 0 exactly, 'b' the mirror region
        v = phoc_encode("ab")
        level2 = v[:72]
        assert level2[0 * 36 + 0] == 1.0  # region 0, 'a'
        assert level2[1 * 36 + 1] == 1.0  # region 1, 'b'
        assert level2.sum() == 2.0

    def test_rejects_out_of_alphabet(self):
        with pytest.raises(ValueError):
            phoc_encode("Ab")

    def test_binary_output(self):
        v = phoc_encode("hello42")
        assert set(np.unique(v)) <= {0.0, 1.0}

    @given(words)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, word):
        np.testing.assert_array_equal(phoc_encode(word), phoc_reference(word))

    @given(words)
    @settings(max_examples=100, deadline=None)
    def test_every_char_sets_a_bit_when_long_enough(self, word):
        # width 1/n <= 1/L guarantees one region captures at least half
        v = phoc_encode(word)
        n = len(word)
        offset = 0
        for level in LEVELS:
            if n >= level:
                for c in set(word):
                    block = v[offset : offset + level * 36]
                    assert block[ALPHABET.index(c) :: 36].any()
            offset += level * 36

    def test_deterministic(self):
        assert np.array_equal(phoc_encode("panopticon"), phoc_encode("panopticon"))


def cosine(word: str, query: np.ndarray) -> float:
    """The retriever's cosine between the PHOC of `word` and a query vector."""
    return score_document(make_document("d", [[word]]), [query])


class TestPhocCosine:
    def test_identical_vectors(self):
        assert cosine("cat", phoc_encode("cat")) == 1.0

    def test_disjoint_support(self):
        assert cosine("aa", phoc_encode("bb")) == 0.0

    def test_zero_norm(self):
        assert cosine("cat", phoc_encode("")) == 0.0

    def test_against_direct_arithmetic(self):
        a, b = phoc_encode("cat"), phoc_encode("cart")
        expected = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert cosine("cat", b) == pytest.approx(expected, abs=1e-12)

    @given(words, words)
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_range(self, w1, w2):
        s = cosine(w1, phoc_encode(w2))
        assert s == cosine(w2, phoc_encode(w1))
        assert 0.0 <= s <= 1.0 + 1e-12

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            cosine("cat", np.ones(10))
