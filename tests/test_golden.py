"""Bit-identity across commits for the attention path.

Each test hashes with SHA-256 one output of the attention path on a fixed
generated corpus, clean and with PHOC bits flipped at rate 0.2, and
compares it with a digest recorded when the test was written: every
question's full ranking (scores as float.hex), the answer_attention
prediction for each of its top 5 documents, the evaluate report JSON, and
the collection itself: each document's PHOC table, token map and line
column, the packed index arrays and every Question.
These outputs come from integer popcounts, correctly rounded square roots
and divisions, and Python arithmetic, so their bytes do not depend on the
machine; the BiDAF path goes through BLAS and is not pinned here.

A change that alters these outputs on purpose updates the digests and
gives the reason in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from phocqa.corpus import corrupt_collection, preprocess_query
from phocqa.evaluation import evaluate
from phocqa.retriever import rank_collection
from phocqa.snippet_qa import answer_attention
from phocqa.synth import GeneratorSpec, generate

SPEC = GeneratorSpec(num_documents=40, num_questions=12, vocab_size=200, seed=2024)
FLIP_SEED = 7

DIGESTS = {
    ("rankings", 0.0): "f4539fa33b477c686c4df19d2cefed6ca33bb2abf82e78c8d20fd1c6a1111099",
    ("rankings", 0.2): "8190cec0a5b8842897001a2d1adb01b5f1b2e0b93afb0cecade31044f99e66bb",
    ("top5_answers", 0.0): "a86358ebd8955959994699a2eaa3bb9e746bb16c344e7f330cdeb9d7a96e63ed",
    ("top5_answers", 0.2): "2b4e6c4302e61f918f6e34debcd74a7358c0ce2df2b0ba8838304c3ffa4c9b3f",
    ("eval_report", 0.0): "5e7c53f2f3db11bd72dc79f424f71f522fbbab24d3d8de7012e100dc72d056a8",
    ("eval_report", 0.2): "48151fea40503f12228e31f2e58a95508132b885464625a18f34692012c19716",
    ("collection", 0.0): "d38c5c98f5a5c06e41ce0cd6c252ef4882dbddc170c2d8d06c5e806c648edadb",
    ("collection", 0.2): "ae8faccd7712a93d37e0c37fd5d53ff088f5dfe91a722d8a5c503abdc8cd99ab",
}


def corpus(flip_rate: float):
    collection, questions = generate(SPEC)
    if flip_rate:
        collection = corrupt_collection(collection, flip_rate, np.random.default_rng(FLIP_SEED))
    return collection, questions


def rankings(flip_rate: float) -> str:
    collection, questions = corpus(flip_rate)
    return "\n".join(
        repr([(r.doc_id, r.score.hex(), r.rank) for r in rank_collection(collection, preprocess_query(q.text)[1], len(collection))])
        for q in questions
    )


def top5_answers(flip_rate: float) -> str:
    collection, questions = corpus(flip_rate)
    lines = []
    for q in questions:
        query = preprocess_query(q.text)[1]
        for r in rank_collection(collection, query, 5):
            p = answer_attention(collection[r.doc_id], query)
            lines.append(repr((p.doc_id, p.start_line, p.end_line, p.confidence.hex())))
    return "\n".join(lines)


def eval_report(flip_rate: float) -> str:
    collection, questions = corpus(flip_rate)
    return evaluate(collection, questions, answer_attention, k=5, meta={"flip_rate": flip_rate}).to_json()


def built_collection(flip_rate: float) -> str:
    """Packed rows as hex bytes, which do not depend on byte order, and
    integer columns as lists, which do not depend on the width of intp."""
    collection, questions = corpus(flip_rate)
    lines = []
    for doc in collection.ordered():
        lines.append(repr((doc.doc_id, doc.transcriptions, doc.word_lines.tolist(), doc.token_row.tolist())))
        lines.append(doc.table.tobytes().hex())
    index = collection.index
    token_type = None if index.token_type is None else index.token_type.tolist()
    lines.append(repr((index.counts.tolist(), token_type, index.offsets.tolist(), index.doc_ids)))
    # the planes in the (PACKED_WORDS, V) uint64 layout the digest was taken in
    lines.append(np.ascontiguousarray(index.planes.T).view(np.uint64).T.tobytes().hex())
    lines.extend(
        repr((q.question_id, q.text, q.tokens, q.gold_doc_id, q.gold_word_span, q.gold_line_span)) for q in questions
    )
    return "\n".join(lines)


OUTPUTS = {
    "rankings": rankings,
    "top5_answers": top5_answers,
    "eval_report": eval_report,
    "collection": built_collection,
}


@pytest.mark.parametrize("output, flip_rate", list(DIGESTS))
def test_output_digest_unchanged(output, flip_rate):
    text = OUTPUTS[output](flip_rate)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[output, flip_rate]
