"""The measured process of one benchmark run.

It pays what a CLI user pays: it loads the collection and questions, corrupts
the collection (qa-noisy), builds the model (train-line) or loads the
checkpoint (qa-bidaf-word), then answers questions through
phocqa.evaluation.evaluate, or trains through phocqa.bidaf.train, one at a
time in a closed loop with a single client until the run's time is up.
After the loop it checks every output against reference.py and prints an
info line and then the result line.

With --trace 1 it times the layers instead: set-up runs traced, then the
loop runs untraced for the first half of the run's time and traced for the
second half, replaying the same operations, and the per-layer metrics come
from the traced half.  The difference in throughput
between the halves is the tracing overhead.

Started by run.py, which writes the inputs first; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import phocqa
from phocqa import bidaf, corpus, evaluation, neural, retriever, snippet_qa

import inputs
import reference
from tracer import Tracer, ratio

K = 5
CHECKED_QUESTIONS = 3  # questions whose whole ranking is checked per run
GRAD_COORDS = 2  # sampled coordinates per parameter in the gradient check
GRAD_EPS = 1e-5
MODULES = {
    "phocqa.corpus": corpus,
    "phocqa.evaluation": evaluation,
    "phocqa.retriever": retriever,
    "phocqa.snippet_qa": snippet_qa,
    "phocqa.bidaf": bidaf,
}


def _bitsets(document) -> list[int] | None:
    """Bitsets of a document's word vectors as the program holds them; None
    if a vector is not binary."""
    m = np.stack([w.phoc for w in document.words])
    if not np.all((m == 0.0) | (m == 1.0)):
        return None
    packed = np.packbits(m.astype(np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class FileView:
    """What the input files say, read without phocqa."""

    def __init__(self, directory: Path) -> None:
        collection = json.loads((directory / "collection.json").read_text(encoding="utf-8"))
        self.lines = {
            d["doc_id"]: [(ln["line_index"], ln["start_word"], ln["end_word"]) for ln in d["lines"]]
            for d in collection["documents"]
        }
        self.texts = {d["doc_id"]: [w["text"] for w in d["words"]] for d in collection["documents"]}
        self.questions = json.loads((directory / "questions.json").read_text(encoding="utf-8"))["questions"]
        self.markers = [t["markers"] for t in json.loads((directory / "truth.json").read_text(encoding="utf-8"))["questions"]]

    def line_of(self, doc_id: str, word: int) -> int:
        return next(li for li, s, e in self.lines[doc_id] if s <= word <= e)

    def stats(self) -> dict:
        tokens = sum(len(t) for t in self.texts.values())
        types = len({w for t in self.texts.values() for w in t})
        return {"documents": len(self.texts), "tokens": tokens, "types": types, "questions": len(self.questions)}


class QaWorkload:
    """qa-clean, qa-noisy and qa-bidaf-word: one question per operation."""

    def __init__(self, name: str, directory: Path, seed: int) -> None:
        self.name = name
        self.collection = corpus.load_collection(directory / "collection.json")
        self.flip_rate = inputs.FLIP_RATE.get(name, 0.0)
        if self.flip_rate:
            rng = np.random.default_rng([seed, 1])
            self.collection = corpus.corrupt_collection(self.collection, self.flip_rate, rng)
        self.questions = corpus.load_questions(directory / "questions.json", self.collection)
        self.model = bidaf.load_checkpoint(directory / "model.ckpt") if name == "qa-bidaf-word" else None

    def run_one(self, i: int):
        qi = i % len(self.questions)
        candidates = []
        if self.model is None:
            qa = snippet_qa.answer_attention
        else:
            model = self.model

            def qa(document, query):
                pred = bidaf.predict(document, query, model)
                candidates.append(pred)
                return pred

        report = evaluation.evaluate(self.collection, [self.questions[qi]], qa, k=K)
        return qi, report.per_question[0], candidates

    def check(self, files: FileView, records: list, rng: np.random.Generator) -> list[str]:
        errors = []
        clean = self.flip_rate == 0.0
        for qi, r, _ in records:
            fq = files.questions[qi]
            gold, span = fq["gold_doc_id"], (fq["gold_start_word"], fq["gold_end_word"])
            expected = reference.dis(files.lines[gold], span, (r.start, r.end)) if r.predicted_doc == gold else 0.0
            errors += [f"{fq['question_id']}: {e}" for e in reference.check_dis(r.dis, expected)]
            if clean and self.model is None:
                if r.retrieval_rank_of_gold != 1 or r.predicted_doc != gold or r.dis != 1.0:
                    errors.append(f"{fq['question_id']}: gold rank {r.retrieval_rank_of_gold}, "
                                  f"answered {r.predicted_doc}, DIS {r.dis!r}")
                if abs(r.confidence - 1.0) > reference.SCORE_TOL:
                    errors.append(f"{fq['question_id']}: snippet confidence {r.confidence!r}, expected 1")

        words, word_errors = self._word_bitsets(files)
        errors += word_errors
        if self.model is not None:
            errors += self._check_bidaf(files, records)

        attempted = sorted({qi for qi, _, _ in records})
        for qi in rng.choice(attempted, size=min(CHECKED_QUESTIONS, len(attempted)), replace=False):
            errors += self._check_ranking(files, int(qi), words, records)
        return errors

    def _word_bitsets(self, files: FileView) -> tuple[dict, list[str]]:
        """Reference bitsets of every document's words.  On a clean
        collection they come from the file's text, and every program vector
        must equal them; on a corrupted one they are the program's vectors,
        which must be binary and differ from the clean ones in about the
        flip rate's share of bits."""
        errors = []
        encoded: dict[str, int] = {}
        words, flipped, total = {}, 0, 0
        for doc_id, texts in files.texts.items():
            for t in texts:
                if t not in encoded:
                    encoded[t] = reference.phoc_bits(reference.normalize(t))
            clean = [encoded[t] for t in texts]
            held = _bitsets(self.collection[doc_id])
            if held is None:
                errors.append(f"{doc_id}: a word vector is not binary")
                continue
            if self.flip_rate:
                words[doc_id] = held
                flipped += sum((a ^ b).bit_count() for a, b in zip(clean, held))
                total += len(held) * reference.DIM
            else:
                words[doc_id] = clean
                wrong = next((t for t, a, b in zip(texts, clean, held) if a != b), None)
                if wrong is not None:
                    errors.append(f"{doc_id}: program PHOC of {wrong!r} differs from the reference")
        if self.flip_rate and abs(flipped / total - self.flip_rate) > 0.005:
            errors.append(f"{flipped / total:.4f} of bits flipped, flip rate {self.flip_rate}")
        return words, errors

    def _check_ranking(self, files: FileView, qi: int, words: dict, records: list) -> list[str]:
        fq = files.questions[qi]
        label = fq["question_id"]
        query = corpus.preprocess_query(fq["text"])[1]
        markers = [reference.phoc_bits(m) for m in files.markers[qi]]
        held = [int.from_bytes(np.packbits(v.astype(np.uint8), bitorder="little").tobytes(), "little") for v in query]
        if held != markers:
            return [f"{label}: query PHOCs differ from the markers' reference PHOCs"]
        results = retriever.rank_collection(self.collection, query, K)
        scores = {doc_id: reference.doc_score(markers, w) for doc_id, w in words.items()}
        errors = [f"{label}: {e}" for e in reference.check_ranking([(r.doc_id, r.score) for r in results], scores, K)]
        if self.flip_rate == 0.0 and (results[0].doc_id != fq["gold_doc_id"] or abs(results[0].score - 1.0) > reference.SCORE_TOL):
            errors.append(f"{label}: top result {results[0]}, expected {fq['gold_doc_id']} at score 1")
        if self.model is not None:
            ranked = [r.doc_id for r in results]
            for _, _, candidates in (rec for rec in records if rec[0] == qi):
                if [p.doc_id for p in candidates] != ranked:
                    errors.append(f"{label}: candidates {[p.doc_id for p in candidates]}, ranking {ranked}")
                for pred in candidates:
                    errors += self._check_prediction(files, qi, pred)
                break
        return errors

    def _check_bidaf(self, files: FileView, records: list) -> list[str]:
        errors = []
        checked = set()
        for qi, r, candidates in records:
            label = files.questions[qi]["question_id"]
            errors += [f"{label}: {e}" for e in reference.check_choice([(p.doc_id, p.confidence) for p in candidates], r.predicted_doc)]
            pred = next((p for p in candidates if p.doc_id == r.predicted_doc), None)
            if pred is None or (r.start, r.end, r.confidence) != (pred.start_line, pred.end_line, pred.confidence):
                errors.append(f"{label}: reported answer is not the chosen candidate's")
                continue
            if (qi, pred.doc_id) not in checked:
                checked.add((qi, pred.doc_id))
                errors += self._check_prediction(files, qi, pred)
        return errors

    def _check_prediction(self, files: FileView, qi: int, pred) -> list[str]:
        """Brute-force the best word span from the program's logits."""
        query = corpus.preprocess_query(files.questions[qi]["text"])[1]
        start, end = bidaf.forward(self.collection[pred.doc_id], query, self.model)
        label = f"{files.questions[qi]['question_id']}/{pred.doc_id}"
        errors = reference.check_span(
            (pred.start_word, pred.end_word, pred.confidence),
            start.values.tolist(), end.values.tolist(), inputs.BIDAF_WORD["max_span"],
        )
        if not errors and (pred.start_line, pred.end_line) != (
            files.line_of(pred.doc_id, pred.start_word), files.line_of(pred.doc_id, pred.end_word)
        ):
            errors.append("answer lines do not cover the answer words")
        return [f"{label}: {e}" for e in errors]


class TrainWorkload:
    """train-line: one ADADELTA step on one example per operation, at the
    CLI's training defaults; each epoch visits the examples in a seeded
    shuffled order."""

    def __init__(self, name: str, directory: Path, seed: int) -> None:
        self.seed = seed
        collection = corpus.load_collection(directory / "collection.json")
        questions = corpus.load_questions(directory / "questions.json", collection)
        self.examples = [(collection[q.gold_doc_id], q) for q in questions]
        self.model = bidaf.BidafModel(bidaf.BidafConfig(hidden=100, dropout_rate=0.2, mode="line"), seed=seed)
        self.rng = np.random.default_rng([seed, 2])
        self.orders: list[list[int]] = []

    def run_one(self, i: int):
        n = len(self.examples)
        while len(self.orders) <= i // n:
            self.orders.append(self.rng.permutation(n).tolist())
        qi = self.orders[i // n][i % n]
        loss = bidaf.train(self.model, [self.examples[qi]], epochs=1, seed=self.seed * 1_000_000 + i)[0]
        return qi, loss

    def check(self, files: FileView, records: list, rng: np.random.Generator) -> list[str]:
        errors = []
        gold = {
            f["question_id"]: (files.line_of(f["gold_doc_id"], f["gold_start_word"]), files.line_of(f["gold_doc_id"], f["gold_end_word"]))
            for f in files.questions
        }
        queries = {q.question_id: corpus.preprocess_query(q.text)[1] for _, q in self.examples}

        def mean_loss(model) -> float:
            return statistics.fmean(
                float(bidaf.example_loss(doc, queries[q.question_id], gold[q.question_id], model).values)
                for doc, q in self.examples
            )

        # Dropout off: the training set's mean loss under the model the run
        # started from (rebuilt from the seed) and under the trained model.
        start = mean_loss(bidaf.BidafModel(self.model.config, seed=self.seed))
        end = mean_loss(self.model)
        if not end < start:
            errors.append(f"mean loss {start:.4f} at the start of the run, {end:.4f} at its end")

        # Gradient check with dropout off, on the example with the shortest document.
        doc, q = min(self.examples, key=lambda ex: len(ex[0].words))
        query, span, model = queries[q.question_id], gold[q.question_id], self.model

        def loss() -> float:
            return float(bidaf.example_loss(doc, query, span, model, training=False).values)

        params = model.parameters()
        neural.zero_grads(params)
        neural.backward(bidaf.example_loss(doc, query, span, model, training=False))
        for name, p in params.items():
            flat = p.values.reshape(-1)
            if not np.shares_memory(flat, p.values):
                errors.append(f"{name}: parameter values are not contiguous")
                continue
            grad = p.grad.reshape(-1) if p.grad is not None else np.zeros(flat.size)
            for idx in rng.choice(flat.size, size=min(GRAD_COORDS, flat.size), replace=False):
                numeric = reference.central_difference(loss, flat, int(idx), GRAD_EPS)
                errors += [f"{name}[{idx}]: {e}" for e in reference.check_gradient(float(grad[idx]), numeric)]
        return errors


def closed_loop(work, seconds: float, on_start=None):
    """Run operations back to back until `seconds` have passed; returns the
    wall time of each, the records of those that returned and the number
    that raised."""
    times, records, failed = [], [], 0
    deadline = perf_counter() + seconds
    i = 0
    while True:
        if on_start is not None:
            on_start(i)
        t0 = perf_counter()
        try:
            record = work.run_one(i)
        except Exception:  # an operation that fails is counted, not fatal
            failed += 1
            traceback.print_exc()
        else:
            records.append(record)
        t1 = perf_counter()
        times.append(t1 - t0)
        i += 1
        if t1 >= deadline:
            return times, records, failed


def layer_metrics(tracer: Tracer, ops: int, overhead_pct: float) -> dict:
    s = tracer.summary()
    ranks = s.calls("retriever.rank_collection")
    forwards = s.calls("bidaf.forward")
    steps = s.calls("bidaf.train")
    values = {
        "phoc.encode_calls": (s.calls("phoc.encode", "setup"), "count"),
        "phoc.encode_self_s": (s.self_seconds("phoc.encode", "setup"), "s"),
        "corpus.load_collection_s": (s.seconds("corpus.load_collection", "setup"), "s"),
        "corpus.corrupt_collection_s": (s.seconds("corpus.corrupt_collection", "setup"), "s"),
        "corpus.preprocess_query_us": (s.per_call("corpus.preprocess_query") * 1e6, "us"),
        "retriever.rank_ms_per_query": (s.per_call("retriever.rank_collection") * 1e3, "ms"),
        "retriever.doc_score_calls_per_query": (ratio(s.calls("retriever.doc_score"), ranks), "count"),
        "retriever.doc_score_self_ms_per_query": (ratio(s.self_seconds("retriever.doc_score"), ranks) * 1e3, "ms"),
        "snippet_qa.answer_attention_ms_per_call": (s.per_call("snippet_qa.answer_attention") * 1e3, "ms"),
        "snippet_qa.answer_attention_calls_per_question": (ratio(s.calls("snippet_qa.answer_attention"), ops), "count"),
        "evaluation.answer_collection_self_ms": (
            ratio(s.self_seconds("evaluation.answer_collection"), s.calls("evaluation.answer_collection")) * 1e3, "ms"),
        "evaluation.scoring_us_per_question": (
            ratio(s.seconds("evaluation.build_boxes") + s.seconds("evaluation.dis"), ops) * 1e6, "us"),
        "bidaf.forward_ms_per_call": (s.per_call("bidaf.forward") * 1e3, "ms"),
        "bidaf.forward_calls_per_question": (ratio(forwards, ops), "count"),
        "bidaf.span_argmax_ms_per_call": (s.per_call("bidaf.constrained_span_argmax") * 1e3, "ms"),
        "bidaf.load_checkpoint_s": (s.seconds("bidaf.load_checkpoint", "setup"), "s"),
        "neural.blstm_ms_per_call": (s.per_call("neural.blstm_matrix") * 1e3, "ms"),
        "neural.blstm_calls_per_forward": (ratio(s.calls("neural.blstm_matrix"), forwards), "count"),
        "neural.c2q_attention_ms_per_call": (s.per_call("neural.c2q_attention") * 1e3, "ms"),
        "neural.backward_ms_per_step": (ratio(s.seconds("neural.backward"), steps) * 1e3, "ms"),
        "neural.adadelta_ms_per_step": (ratio(s.seconds("neural.adadelta_step"), steps) * 1e3, "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpus": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(inputs.SPECS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--started", required=True, type=float, help="time.time() when the process was started")
    args = parser.parse_args()
    expected = Path(__file__).resolve().parent.parent / "src" / "phocqa"
    if Path(phocqa.__file__).resolve().parent != expected:
        print(f"phocqa imported from {phocqa.__file__}, not from {expected}", file=sys.stderr)
        return 2

    tracer = Tracer()
    if args.trace:
        tracer.install(MODULES)
    kind = TrainWorkload if args.workload == "train-line" else QaWorkload
    work = kind(args.workload, args.inputs, args.seed)
    setup_s = time.time() - args.started
    tracer.uninstall()

    loop_s = args.seconds / 2 if args.trace else args.seconds
    times, records, failed = closed_loop(work, loop_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rate = len(times) / sum(times)
    info = {"workload": args.workload, "seed": args.seed, "ops": len(times), "median_op_s": statistics.median(times)}
    if args.trace:
        tracer.install(MODULES)

        def start(i):
            tracer.request = i

        traced_times, traced_records, traced_failed = closed_loop(work, loop_s, start)
        tracer.uninstall()
        traced_rate = len(traced_times) / sum(traced_times)
        metrics = layer_metrics(tracer, len(traced_times), 100.0 * (rate - traced_rate) / rate)
        trace_file = args.inputs / "trace.json"
        tracer.write(trace_file)
        info["trace"] = {
            "file": str(trace_file), "spans": len(tracer.spans), "unwrapped": tracer.missing,
            "untraced_per_s": rate, "traced_per_s": traced_rate, "traced_ops": len(traced_times),
        }
        times += traced_times
        records += traced_records
        failed += traced_failed
    else:
        metrics = {
            "questions_per_s": {"value": rate, "unit": "questions/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    files = FileView(args.inputs)
    errors = work.check(files, records, np.random.default_rng([args.seed, 3])) if records else ["no operation returned"]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    info.update(inputs=files.stats(), environment=environment(), check_errors=len(errors))
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not errors, "attempted": len(times), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
