"""Metrics and the end-to-end pipeline: retrieve top-k documents, answer
each candidate, keep the most confident prediction, and score it with the
Double Inclusion Score.

DIS = (|AB n SB| / |SB|) * (|AB n LB| / |AB|), where SB holds the gold
answer words, LB additionally the full gold lines plus one line above and
below, and AB the words of the predicted lines.  A prediction counts as
correct when DIS is strictly above DIS_THRESHOLD (0.8).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .corpus import AnswerPrediction, Collection, Document, Question
from .retriever import RetrievalResult, rank_collection

DIS_THRESHOLD = 0.8  # a prediction is correct when its DIS is strictly above this

QaModel = Callable[[Document, list[np.ndarray]], AnswerPrediction]


@dataclass(frozen=True)
class AnswerBoxes:
    sb: frozenset[int]
    lb: frozenset[int]
    ab: frozenset[int]


@dataclass(frozen=True)
class QuestionResult:
    question_id: str
    dis: float
    predicted_doc: str
    start: int
    end: int
    confidence: float
    retrieval_rank_of_gold: int | None  # None: the gold document is not in the top k


@dataclass(frozen=True)
class EvalReport:
    meta: dict
    per_question: tuple[QuestionResult, ...]
    accuracy: float
    mean_dis: float
    top5: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "meta": self.meta,
                "per_question": [asdict(r) for r in self.per_question],
                "summary": {"accuracy": self.accuracy, "mean_dis": self.mean_dis, "top5": self.top5},
            },
            indent=1,
            sort_keys=True,
        )


def build_boxes(
    document: Document,
    gold_word_span: tuple[int, int],
    predicted_line_span: tuple[int, int],
) -> AnswerBoxes:
    """SB = gold words; LB = words of the gold lines plus one adjacent line on
    each side (clamped); AB = words of the predicted lines."""
    if not (0 <= gold_word_span[0] <= gold_word_span[1] < len(document)):
        raise ValueError(f"gold word span {gold_word_span} invalid for {document.doc_id!r}")
    if not (0 <= predicted_line_span[0] <= predicted_line_span[1] < document.num_lines):
        raise ValueError(f"predicted line span {predicted_line_span} invalid for {document.doc_id!r}")
    sb = frozenset(range(gold_word_span[0], gold_word_span[1] + 1))
    first_line = document.line_of_word(gold_word_span[0])
    last_line = document.line_of_word(gold_word_span[1])
    lb = frozenset(
        document.word_ids_of_lines(
            max(first_line - 1, 0), min(last_line + 1, document.num_lines - 1)
        )
    )
    ab = frozenset(document.word_ids_of_lines(*predicted_line_span))
    return AnswerBoxes(sb=sb, lb=lb, ab=ab)


def dis(boxes: AnswerBoxes) -> float:
    if not boxes.sb:
        raise ValueError("SB must be non-empty")
    if not boxes.ab:
        return 0.0
    recall = len(boxes.ab & boxes.sb) / len(boxes.sb)
    precision = len(boxes.ab & boxes.lb) / len(boxes.ab)
    return recall * precision


def answer_collection(
    collection: Collection,
    query: list[np.ndarray],
    qa_model: QaModel,
    k: int = 5,
) -> tuple[AnswerPrediction, list[RetrievalResult]]:
    """Retrieve top-k documents, answer each, return the most confident
    prediction.  Ties go to the better retrieval rank, then the smaller
    start index."""
    retrieved = rank_collection(collection, query, k)
    best: AnswerPrediction | None = None
    # candidates arrive in rank order and each QA model tie-breaks on start
    # index internally, so a strict comparison realizes the full tie rule
    for res in retrieved:
        pred = qa_model(collection[res.doc_id], query)
        if best is None or pred.confidence > best.confidence:
            best = pred
    assert best is not None
    return best, retrieved


def evaluate(
    collection: Collection,
    questions: list[Question],
    qa_model: QaModel,
    k: int = 5,
    meta: dict | None = None,
) -> EvalReport:
    """Run the full pipeline per question and aggregate.  A prediction in the
    wrong document scores DIS 0 (it cannot intersect the gold SB)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    per_question = []
    for q in questions:
        if q.gold_doc_id not in collection.documents:
            raise ValueError(f"question {q.question_id!r}: gold_doc_id {q.gold_doc_id!r} not in collection")
        pred, retrieved = answer_collection(collection, q.query, qa_model, k)
        if pred.doc_id == q.gold_doc_id:
            boxes = build_boxes(
                collection[q.gold_doc_id], q.gold_word_span, (pred.start_line, pred.end_line)
            )
            score = dis(boxes)
        else:
            score = 0.0
        rank = next((r.rank for r in retrieved if r.doc_id == q.gold_doc_id), None)
        per_question.append(
            QuestionResult(
                question_id=q.question_id,
                dis=score,
                predicted_doc=pred.doc_id,
                start=pred.start_line,
                end=pred.end_line,
                confidence=pred.confidence,
                retrieval_rank_of_gold=rank,
            )
        )
    n = len(per_question)
    return EvalReport(
        meta=meta or {},
        per_question=tuple(per_question),
        accuracy=sum(1 for r in per_question if r.dis > DIS_THRESHOLD) / n if n else 0.0,
        mean_dis=sum(r.dis for r in per_question) / n if n else 0.0,
        top5=sum(1 for r in per_question if r.retrieval_rank_of_gold is not None) / n if n else 0.0,
    )
