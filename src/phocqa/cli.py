"""Command-line entry point for batch experiments.

Subcommands: validate, generate, retrieve, train, answer, eval.  Every
command is deterministic given its flags; corruption (--flip-rate) is
applied to the whole collection at load time so all backends see the same
degraded word vectors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bidaf
from .corpus import (
    Collection,
    corrupt_collection,
    load_collection,
    load_questions,
    preprocess_query,
    write_collection,
    write_questions,
)
from .evaluation import answer_collection, evaluate
from .neural import AdadeltaState
from .retriever import rank_collection
from .snippet_qa import answer_attention
from .synth import GeneratorSpec, generate

BACKENDS = ("attention", "bidaf-line", "bidaf-word")


def _load_corrupted(path: str, flip_rate: float, seed: int) -> Collection:
    # corrupt_collection rejects a flip rate outside [0, 1], NaN included,
    # and returns the collection itself at 0
    return corrupt_collection(load_collection(path), flip_rate, np.random.default_rng(seed))


def _qa_backend(backend: str, checkpoint: str | None):
    if backend == "attention":
        return answer_attention
    if backend in ("bidaf-line", "bidaf-word"):
        if checkpoint is None:
            raise ValueError(f"backend {backend!r} requires --checkpoint")
        model = bidaf.load_checkpoint(checkpoint)
        expected = backend.split("-", 1)[1]
        if model.config.mode != expected:
            raise ValueError(
                f"checkpoint mode {model.config.mode!r} does not match backend {backend!r}"
            )
        return lambda doc, query: bidaf.predict(doc, query, model)
    raise ValueError(f"unknown backend {backend!r}")


def cmd_validate(args) -> int:
    try:
        collection = load_collection(args.collection)
    except (ValueError, OSError) as e:
        print(f"invalid collection: {e}", file=sys.stderr)
        return 1
    print(f"ok: {len(collection)} documents")
    return 0


def cmd_generate(args) -> int:
    spec = GeneratorSpec(
        num_documents=args.num_docs,
        lines_per_document=(args.min_lines, args.max_lines),
        words_per_line=(args.min_words, args.max_words),
        vocab_size=args.vocab_size,
        num_questions=args.num_questions,
        seed=args.seed,
    )
    collection, questions = generate(spec)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    write_collection(collection, out / "collection.json")
    write_questions(questions, out / "questions.json")
    print(f"wrote {len(collection)} documents and {len(questions)} questions to {out}")
    return 0


def cmd_retrieve(args) -> int:
    collection = _load_corrupted(args.collection, args.flip_rate, args.seed)
    _, query = preprocess_query(args.question)
    for r in rank_collection(collection, query, args.k):
        print(f"{r.rank} {r.doc_id} {r.score:.6f}")
    return 0


def cmd_train(args) -> int:
    collection = _load_corrupted(args.collection, args.flip_rate, args.seed)
    questions = load_questions(args.questions, collection)
    config = bidaf.BidafConfig(
        hidden=args.hidden, dropout_rate=args.dropout, mode=args.mode
    )
    model = bidaf.BidafModel(config, seed=args.seed)
    model.optimizer = AdadeltaState(lr=args.learning_rate)
    examples = [(collection[q.gold_doc_id], q) for q in questions]
    trace = bidaf.train(model, examples, epochs=args.epochs, seed=args.seed)
    for i, loss in enumerate(trace):
        print(f"epoch {i + 1} loss {loss:.6f}")
    bidaf.save_checkpoint(model, args.checkpoint)
    print(f"checkpoint written to {args.checkpoint}")
    return 0


def cmd_answer(args) -> int:
    collection = _load_corrupted(args.collection, args.flip_rate, args.seed)
    qa = _qa_backend(args.backend, args.checkpoint)
    _, query = preprocess_query(args.question)
    pred, _ = answer_collection(collection, query, qa, args.k)
    print(f"{pred.doc_id} lines {pred.start_line}-{pred.end_line} confidence {pred.confidence:.6f}")
    return 0


def cmd_eval(args) -> int:
    collection = _load_corrupted(args.collection, args.flip_rate, args.seed)
    questions = load_questions(args.questions, collection)
    qa = _qa_backend(args.backend, args.checkpoint)
    meta = {
        "backend": args.backend,
        "k": args.k,
        "flip_rate": args.flip_rate,
        "seed": args.seed,
        "checkpoint": args.checkpoint,
    }
    report = evaluate(collection, questions, qa, k=args.k, meta=meta)
    if args.report:
        Path(args.report).write_text(report.to_json(), encoding="utf-8")
    print(
        f"questions {len(report.per_question)} accuracy {report.accuracy:.4f} "
        f"mean_dis {report.mean_dis:.4f} top{args.k} {report.top5:.4f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phocqa")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, questions=False, backend=False, k=True):
        p.add_argument("--collection", required=True)
        if questions:
            p.add_argument("--questions", required=True)
        if k:
            p.add_argument("--k", type=int, default=5)
        p.add_argument("--flip-rate", dest="flip_rate", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=42)
        if backend:
            p.add_argument("--backend", choices=BACKENDS, default="attention")
            p.add_argument("--checkpoint")

    p = sub.add_parser("validate", help="check a collection file")
    p.add_argument("--collection", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("generate", help="write a synthetic corpus")
    p.add_argument("--output", required=True)
    p.add_argument("--num-docs", type=int, default=100)
    p.add_argument("--min-lines", type=int, default=5)
    p.add_argument("--max-lines", type=int, default=10)
    p.add_argument("--min-words", type=int, default=5)
    p.add_argument("--max-words", type=int, default=10)
    p.add_argument("--vocab-size", type=int, default=500)
    p.add_argument("--num-questions", type=int, default=50)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("retrieve", help="rank documents for a question")
    p.add_argument("question")
    common(p)
    p.set_defaults(fn=cmd_retrieve)

    p = sub.add_parser("train", help="train a BiDAF model")
    common(p, questions=True, k=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--mode", choices=("line", "word"), default="line")
    p.add_argument("--hidden", type=int, default=100)
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("answer", help="answer one question end to end")
    p.add_argument("question")
    common(p, backend=True)
    p.set_defaults(fn=cmd_answer)

    p = sub.add_parser("eval", help="evaluate a QA backend end to end")
    common(p, questions=True, backend=True)
    p.add_argument("--report")
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
