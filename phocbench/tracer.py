"""Outside-in tracing: wrap public phocqa functions where their callers look
them up, and record one span per call.

A span is [name, start, end, parent, request]: `parent` is the index of the
enclosing span (-1 at top level) and `request` the operation the span
belongs to (-1 during set-up).  Spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the durations
of its direct children; calls nest on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  The module is the one whose globals the
# caller reads, e.g. evaluation.answer_collection finds rank_collection in
# phocqa.evaluation and bidaf.forward finds blstm_matrix in phocqa.bidaf.
WRAP_POINTS = (
    ("phocqa.corpus", "phoc_encode", "phoc.encode"),
    ("phocqa.corpus", "load_collection", "corpus.load_collection"),
    ("phocqa.corpus", "corrupt_collection", "corpus.corrupt_collection"),
    ("phocqa.corpus", "preprocess_query", "corpus.preprocess_query"),
    ("phocqa.evaluation", "evaluate", "evaluation.evaluate"),
    ("phocqa.evaluation", "answer_collection", "evaluation.answer_collection"),
    ("phocqa.evaluation", "rank_collection", "retriever.rank_collection"),
    ("phocqa.evaluation", "build_boxes", "evaluation.build_boxes"),
    ("phocqa.evaluation", "dis", "evaluation.dis"),
    ("phocqa.retriever", "doc_score", "retriever.doc_score"),
    ("phocqa.snippet_qa", "answer_attention", "snippet_qa.answer_attention"),
    ("phocqa.bidaf", "load_checkpoint", "bidaf.load_checkpoint"),
    ("phocqa.bidaf", "train", "bidaf.train"),
    ("phocqa.bidaf", "predict", "bidaf.predict"),
    ("phocqa.bidaf", "forward", "bidaf.forward"),
    ("phocqa.bidaf", "constrained_span_argmax", "bidaf.constrained_span_argmax"),
    ("phocqa.bidaf", "blstm_matrix", "neural.blstm_matrix"),
    ("phocqa.bidaf", "c2q_attention", "neural.c2q_attention"),
    ("phocqa.bidaf", "backward", "neural.backward"),
    ("phocqa.bidaf", "adadelta_step", "neural.adadelta_step"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self, modules: dict) -> None:
        """Wrap every wrap point; a function the program no longer has is
        listed in `missing` and its metrics read 0."""
        self.missing = []
        for module_name, attr, name in WRAP_POINTS:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def summary(self) -> "Summary":
        return Summary(self.spans)

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "request"],
                    "spans": [[n, s - origin, e - origin, p, r] for n, s, e, p, r in self.spans],
                },
                f,
            )


class Summary:
    """Counts, total durations and total self times per (phase, name), where
    the phase is "setup" for request -1 and "run" otherwise."""

    def __init__(self, spans: list[list]) -> None:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.count: dict = defaultdict(int)
        self.total: dict = defaultdict(float)
        self.self_total: dict = defaultdict(float)
        for i, (name, start, end, _, request) in enumerate(spans):
            key = ("setup" if request < 0 else "run", name)
            self.count[key] += 1
            self.total[key] += end - start
            self.self_total[key] += end - start - child_time[i]

    def calls(self, name: str, phase: str = "run") -> int:
        return self.count[(phase, name)]

    def seconds(self, name: str, phase: str = "run") -> float:
        return self.total[(phase, name)]

    def self_seconds(self, name: str, phase: str = "run") -> float:
        return self.self_total[(phase, name)]

    def per_call(self, name: str, phase: str = "run") -> float:
        n = self.calls(name, phase)
        return self.seconds(name, phase) / n if n else 0.0


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
