import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phocqa.corpus import AnswerPrediction, Question
from phocqa.evaluation import (
    AnswerBoxes,
    answer_collection,
    build_boxes,
    dis,
    evaluate,
)
from phocqa.phoc import phoc_encode
from phocqa.snippet_qa import answer_attention
from phocqa.synth import GeneratorSpec, generate

from conftest import make_collection, make_document
from oracles import dis_reference


def five_line_doc():
    return make_document("d", [["w%d%d" % (l, i) for i in range(3)] for l in range(5)])


class TestBuildBoxes:
    def test_middle_line(self):
        doc = five_line_doc()
        boxes = build_boxes(doc, (6, 8), (2, 2))  # gold covers line 2 exactly
        assert boxes.sb == {6, 7, 8}
        assert boxes.lb == set(range(3, 12))  # lines 1-3
        assert boxes.ab == {6, 7, 8}

    def test_edge_clamp_top(self):
        doc = five_line_doc()
        boxes = build_boxes(doc, (0, 1), (0, 0))
        assert boxes.lb == set(range(0, 6))  # lines 0-1, no line above

    def test_edge_clamp_bottom(self):
        doc = five_line_doc()
        boxes = build_boxes(doc, (13, 14), (4, 4))
        assert boxes.lb == set(range(9, 15))  # lines 3-4, no line below

    def test_straddling_span(self):
        doc = five_line_doc()
        boxes = build_boxes(doc, (8, 9), (2, 3))  # gold straddles lines 2-3
        assert boxes.lb == set(range(3, 15))  # lines 1-4

    def test_sb_subset_lb(self):
        doc = five_line_doc()
        for span in [(0, 0), (4, 7), (14, 14)]:
            boxes = build_boxes(doc, span, (0, 4))
            assert boxes.sb <= boxes.lb

    def test_invalid_spans(self):
        doc = five_line_doc()
        with pytest.raises(ValueError):
            build_boxes(doc, (0, 99), (0, 0))
        with pytest.raises(ValueError):
            build_boxes(doc, (0, 0), (3, 9))


class TestDis:
    def test_perfect(self):
        doc = five_line_doc()
        boxes = build_boxes(doc, (6, 8), (2, 2))
        assert dis(boxes) == 1.0

    def test_disjoint(self):
        assert dis(AnswerBoxes(frozenset({1}), frozenset({0, 1, 2}), frozenset({9}))) == 0.0

    def test_half(self):
        # one of two SB words hit, all 4 AB words inside LB
        boxes = AnswerBoxes(
            sb=frozenset({1, 2}),
            lb=frozenset(range(10)),
            ab=frozenset({2, 5, 6, 7}),
        )
        assert dis(boxes) == pytest.approx(0.5)

    def test_empty_ab(self):
        assert dis(AnswerBoxes(frozenset({1}), frozenset({1}), frozenset())) == 0.0

    def test_empty_sb_rejected(self):
        with pytest.raises(ValueError):
            dis(AnswerBoxes(frozenset(), frozenset(), frozenset({1})))

    @given(
        st.sets(st.integers(0, 20), min_size=1, max_size=8),
        st.sets(st.integers(0, 20), max_size=12),
        st.sets(st.integers(0, 20), max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_set_arithmetic_oracle(self, sb, extra_lb, ab):
        lb = sb | extra_lb
        boxes = AnswerBoxes(frozenset(sb), frozenset(lb), frozenset(ab))
        score = dis(boxes)
        assert score == dis_reference(set(sb), set(lb), set(ab))
        assert 0.0 <= score <= 1.0
        # DIS == 1 iff SB subset AB subset LB
        assert (score == 1.0) == (sb <= ab <= lb)

    def test_words_outside_lb_strictly_decrease(self):
        sb = frozenset({1, 2})
        lb = frozenset(range(6))
        base = dis(AnswerBoxes(sb, lb, frozenset({1, 2})))
        worse = dis(AnswerBoxes(sb, lb, frozenset({1, 2, 99})))
        assert worse < base


class TestTopK:
    """evaluate's top5: the share of questions whose gold document is among
    the top k retrieved."""

    COLLECTION = {"g": [["alph"]], "a": [["alpha"]], "b": [["alpha"]], "c": [["zzzz"]]}

    def top5(self, pairs, k, ids=None):
        """top5 of questions (text, gold doc) over COLLECTION, with ids q0, q1, ... unless given."""
        ids = ids or [f"q{i}" for i in range(len(pairs))]
        questions = [Question(qid, text, (text,), gold, (0, 0), (0, 0)) for qid, (text, gold) in zip(ids, pairs)]
        return evaluate(make_collection(self.COLLECTION), questions, answer_attention, k=k).top5

    def test_always_rank_one(self):
        assert self.top5([("alph", "g")], k=5) == 1.0

    def test_never_in_top_k(self):
        # "alpha" scores a and b 1.0 and g below them
        assert self.top5([("alpha", "g")], k=2) == 0.0

    def test_mixed_counts(self):
        pairs = [("alph", "g"), ("alpha", "a"), ("zzzz", "c"), ("zzzz", "g")]
        assert self.top5(pairs, k=1) == 0.75
        # one id for every question: each question's own ranking still counts
        assert self.top5(pairs, k=1, ids=["same"] * 4) == 0.75

    def test_monotone_in_k(self):
        accs = [self.top5([("alpha", "g")], k=k) for k in range(1, 5)]
        assert accs == [0.0, 0.0, 1.0, 1.0]


class TestAnswerCollection:
    def test_k1_equals_top_document(self):
        collection, questions = generate(
            GeneratorSpec(num_documents=5, num_questions=3, vocab_size=60, seed=2)
        )
        q = questions[0]
        query = [phoc_encode(t) for t in q.tokens]
        pred, retrieved = answer_collection(collection, query, answer_attention, k=1)
        assert pred.doc_id == retrieved[0].doc_id
        direct = answer_attention(collection[retrieved[0].doc_id], query)
        assert pred == direct

    def test_selection_equals_brute_force(self, rng):
        collection, _ = generate(
            GeneratorSpec(num_documents=10, num_questions=2, vocab_size=60, seed=3)
        )

        confidences = {did: float(rng.random()) for did in collection.documents}

        def stub(doc, query):
            return AnswerPrediction(doc.doc_id, 0, 0, confidences[doc.doc_id])

        query = [phoc_encode("zzz")]
        pred, retrieved = answer_collection(collection, query, stub, k=5)
        assert pred.confidence == max(confidences[r.doc_id] for r in retrieved)

    def test_tie_prefers_better_rank(self):
        collection, _ = generate(
            GeneratorSpec(num_documents=4, num_questions=1, vocab_size=30, seed=4)
        )

        def stub(doc, query):
            return AnswerPrediction(doc.doc_id, 0, 0, 0.5)

        query = [phoc_encode("zzz")]
        pred, retrieved = answer_collection(collection, query, stub, k=4)
        assert pred.doc_id == retrieved[0].doc_id


@pytest.fixture(scope="module")
def synth():
    return generate(GeneratorSpec(num_documents=20, num_questions=10, vocab_size=150, seed=6))


class TestEvaluate:
    def test_attention_backend_run(self, synth):
        collection, questions = synth
        report = evaluate(collection, questions, answer_attention, k=5)
        assert len(report.per_question) == len(questions)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.top5 == 1.0  # unique markers make retrieval exact

    def test_aggregates_equal_recomputation(self, synth):
        collection, questions = synth
        report = evaluate(collection, questions, answer_attention, k=5)
        dis_list = [r.dis for r in report.per_question]
        assert report.mean_dis == pytest.approx(sum(dis_list) / len(dis_list))
        assert report.accuracy == pytest.approx(
            sum(1 for d in dis_list if d > 0.8) / len(dis_list)
        )

    def test_wrong_document_scores_zero(self, synth):
        collection, questions = synth

        wrong = {q.question_id: q.gold_doc_id for q in questions}
        other_doc = next(iter(collection.documents))

        def stub(doc, query):
            return AnswerPrediction(doc.doc_id, 0, 0, 1.0 if doc.doc_id == other_doc else 0.0)

        qs = [q for q in questions if q.gold_doc_id != other_doc]
        report = evaluate(collection, qs, stub, k=len(collection))
        assert report.accuracy == 0.0
        assert all(r.dis == 0.0 for r in report.per_question)

    def test_report_json_schema(self, synth):
        collection, questions = synth
        report = evaluate(collection, questions, answer_attention, k=5, meta={"seed": 1})
        data = json.loads(report.to_json())
        assert set(data) == {"meta", "per_question", "summary"}
        assert set(data["summary"]) == {"accuracy", "mean_dis", "top5"}
        entry = data["per_question"][0]
        assert set(entry) == {
            "question_id",
            "dis",
            "predicted_doc",
            "start",
            "end",
            "confidence",
            "retrieval_rank_of_gold",
        }

    def test_deterministic(self, synth):
        collection, questions = synth
        a = evaluate(collection, questions, answer_attention, k=5).to_json()
        b = evaluate(collection, questions, answer_attention, k=5).to_json()
        assert a == b

    def test_unknown_gold_doc(self, synth):
        collection, questions = synth
        bad = Question("ghost", "what is foo", ("foo",), "nope", (0, 0), (0, 0))
        with pytest.raises(ValueError, match="ghost"):
            evaluate(collection, [bad], answer_attention)
