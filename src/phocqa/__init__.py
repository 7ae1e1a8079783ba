"""Recognition-free document retrieval and question answering over PHOC
embeddings: attention-based ranking, snippet scoring, and trainable BiDAF
span prediction with a Double Inclusion Score evaluation harness."""

from .phoc import PHOC_DIM, normalize_token, phoc_encode
from .corpus import (
    AnswerPrediction,
    Collection,
    Document,
    Question,
    Word,
    load_collection,
    load_questions,
    preprocess_query,
    write_collection,
    write_questions,
)
from .retriever import RetrievalResult, rank_collection
from .snippet_qa import answer_attention
from .evaluation import AnswerBoxes, EvalReport, build_boxes, dis, evaluate
from .synth import GeneratorSpec, generate

__all__ = [
    "PHOC_DIM",
    "normalize_token",
    "phoc_encode",
    "Collection",
    "Document",
    "Word",
    "Question",
    "load_collection",
    "load_questions",
    "write_collection",
    "write_questions",
    "preprocess_query",
    "RetrievalResult",
    "rank_collection",
    "AnswerPrediction",
    "answer_attention",
    "AnswerBoxes",
    "EvalReport",
    "build_boxes",
    "dis",
    "evaluate",
    "GeneratorSpec",
    "generate",
]
