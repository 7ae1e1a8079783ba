from dataclasses import replace

import pytest

from phocqa.phoc import phoc_encode
from phocqa.snippet_qa import answer_attention

from conftest import make_document, random_word, rows_with_bit_set, score_document
from oracles import make_snippets


class TestMakeSnippets:
    """The window enumeration of the brute-force oracle below."""

    def test_single_line(self):
        doc = make_document("d", [["a", "b"]])
        snips = make_snippets(doc.word_lines.tolist())
        assert [(s.start_line, s.end_line) for s in snips] == [(0, 0)]
        assert snips[0].word_ids == (0, 1)

    def test_two_lines(self):
        doc = make_document("d", [["a"], ["b"]])
        assert [(s.start_line, s.end_line) for s in make_snippets(doc.word_lines.tolist())] == [(0, 1)]

    def test_four_lines(self):
        doc = make_document("d", [["a"], ["b"], ["c"], ["d"]])
        assert [(s.start_line, s.end_line) for s in make_snippets(doc.word_lines.tolist())] == [
            (0, 1),
            (1, 2),
            (2, 3),
        ]

    def test_words_cover_exactly_the_lines(self):
        doc = make_document("d", [["a", "b"], ["c"], ["d", "e"]])
        snips = make_snippets(doc.word_lines.tolist())
        assert snips[0].word_ids == (0, 1, 2)
        assert snips[1].word_ids == (2, 3, 4)


class TestAnswerAttention:
    def test_unique_snippet_gets_confidence_one(self):
        doc = make_document(
            "d", [["filler", "words"], ["answer", "marker"], ["more", "filler"], ["tail", "words"]]
        )
        query = [phoc_encode("answer"), phoc_encode("marker")]
        pred = answer_attention(doc, query)
        assert (pred.start_line, pred.end_line) in [(0, 1), (1, 2)]
        assert pred.confidence == 1.0

    def test_tie_prefers_earlier_snippet(self):
        doc = make_document("d", [["same"], ["same"], ["same"]])
        pred = answer_attention(doc, [phoc_encode("same")])
        assert (pred.start_line, pred.end_line) == (0, 1)

    def test_matches_brute_force_over_snippets(self, rng):
        for num_lines in [1, 2, 3, 4, 5, 6] * 2:
            lines = [[random_word(rng, 1, 6) for _ in range(int(rng.integers(1, 5)))] for _ in range(num_lines)]
            doc = make_document("d", lines)
            query = [phoc_encode(random_word(rng, 1, 6)) for _ in range(2)]
            pred = answer_attention(doc, query)
            scores = []
            for snip in make_snippets(doc.word_lines.tolist()):
                sub = make_document("sub", [[doc.words[i].transcription for i in snip.word_ids]])
                scores.append((score_document(sub, query), snip))
            best_score = max(s for s, _ in scores)
            best_snip = next(s for sc, s in scores if sc == best_score)
            assert pred.confidence == pytest.approx(best_score, abs=1e-12)
            assert (pred.start_line, pred.end_line) == (best_snip.start_line, best_snip.end_line)
            # confidence dominates every individual snippet score
            assert all(pred.confidence >= sc - 1e-12 for sc, _ in scores)

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            answer_attention(make_document("d", [["a"]]), [])

    def test_non_binary_vector_named(self):
        # rejected when the document is built, before answer_attention
        doc = make_document("d", [["a", "b"], ["c"]])
        rows = rows_with_bit_set(doc, 2, 511)
        with pytest.raises(ValueError, match="document 'd': PHOC of word 2 has padding bits set"):
            replace(doc, table=rows)
