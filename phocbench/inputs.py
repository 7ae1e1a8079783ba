"""Seeded synthetic inputs for each workload, written as the files a CLI
user would pass: collection.json, questions.json and, for qa-bidaf-word, a
checkpoint.  truth.json keeps what the checks need to know apart from the
program: the marker words of every question.

Every vocabulary word has 5 to 8 letters and contains one of j, q, x or z,
so none is an English stopword and the question filter keeps each marker.
All vocabulary words have distinct PHOCs, and each marker occurs in exactly
one document, so a marker question has a single document that matches all
of its words exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

LETTERS = "abcdefghijklmnopqrstuvwxyz"
RARE = "jqxz"


@dataclass(frozen=True)
class Spec:
    documents: int
    lines: tuple[int, int]  # lines per document, inclusive range
    words: tuple[int, int]  # words per line, inclusive range
    filler_types: int
    questions: int
    markers: tuple[int, int] = (1, 3)  # marker words per question


RETRIEVAL = Spec(documents=2000, lines=(5, 10), words=(5, 10), filler_types=900, questions=40)
SPECS = {
    "qa-clean": RETRIEVAL,
    "qa-noisy": RETRIEVAL,
    "train-line": Spec(documents=20, lines=(7, 8), words=(7, 8), filler_types=300, questions=20),
    "qa-bidaf-word": Spec(documents=100, lines=(7, 8), words=(7, 8), filler_types=500, questions=30),
}
FLIP_RATE = {"qa-noisy": 0.2}
# The checkpoint of qa-bidaf-word: the CLI's defaults in word mode.
BIDAF_WORD = {"hidden": 100, "dropout_rate": 0.2, "mode": "word", "max_span": 30}


def _vocabulary(size: int, rng: np.random.Generator) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    phocs: set[int] = set()
    while len(words) < size:
        chars = list(rng.choice(list(LETTERS), size=int(rng.integers(5, 9))))
        chars[int(rng.integers(len(chars)))] = RARE[int(rng.integers(len(RARE)))]
        word = "".join(chars)
        bits = reference.phoc_bits(word)
        if word in seen or bits in phocs:
            continue
        seen.add(word)
        phocs.add(bits)
        words.append(word)
    return words


def generate(spec: Spec, seed: int) -> tuple[dict, dict, dict]:
    """(collection, questions, truth) as JSON-ready dicts; the same spec and
    seed give the same inputs."""
    rng = np.random.default_rng(seed)
    markers_needed = spec.questions * spec.markers[1]
    vocab = _vocabulary(markers_needed + spec.filler_types, rng)
    marker_pool, filler = vocab[:markers_needed], vocab[markers_needed:]

    grids: list[list[str]] = []
    spans: list[list[tuple[int, int]]] = []
    for _ in range(spec.documents):
        words: list[str] = []
        lines = []
        for _ in range(int(rng.integers(spec.lines[0], spec.lines[1] + 1))):
            start = len(words)
            words.extend(rng.choice(filler, size=int(rng.integers(spec.words[0], spec.words[1] + 1))))
            lines.append((start, len(words) - 1))
        grids.append([str(w) for w in words])
        spans.append(lines)

    golds = rng.permutation(spec.documents)
    planted: list[set[int]] = [set() for _ in range(spec.documents)]
    questions, truth = [], []
    used = 0
    for qi in range(spec.questions):
        di = int(golds[qi % spec.documents])
        m = int(rng.integers(spec.markers[0], spec.markers[1] + 1))
        markers = marker_pool[used : used + m]
        used += m
        free = [s for s in range(len(grids[di]) - m + 1) if not planted[di] & set(range(s, s + m))]
        start = free[int(rng.integers(len(free)))]
        planted[di].update(range(start, start + m))
        grids[di][start : start + m] = markers
        qid, doc_id = f"q_{qi:04d}", f"doc_{di:05d}"
        questions.append(
            {
                "question_id": qid,
                "text": "what is the " + " ".join(markers),
                "gold_doc_id": doc_id,
                "gold_start_word": start,
                "gold_end_word": start + m - 1,
            }
        )
        truth.append({"question_id": qid, "markers": markers})

    documents = []
    for di, (words, lines) in enumerate(zip(grids, spans)):
        line_of = {w: li for li, (s, e) in enumerate(lines) for w in range(s, e + 1)}
        documents.append(
            {
                "doc_id": f"doc_{di:05d}",
                "lines": [{"line_index": li, "start_word": s, "end_word": e} for li, (s, e) in enumerate(lines)],
                "words": [{"word_index": wi, "line_index": line_of[wi], "text": t} for wi, t in enumerate(words)],
            }
        )
    return {"documents": documents}, {"questions": questions}, {"questions": truth}


def write(workload: str, seed: int, out: Path) -> None:
    """Write the workload's input files into `out`."""
    out.mkdir(parents=True, exist_ok=True)
    collection, questions, truth = generate(SPECS[workload], seed)
    for name, data in (("collection.json", collection), ("questions.json", questions), ("truth.json", truth)):
        (out / name).write_text(json.dumps(data), encoding="utf-8")
    if workload == "qa-bidaf-word":
        from phocqa import bidaf

        model = bidaf.BidafModel(bidaf.BidafConfig(**BIDAF_WORD), seed=seed)
        bidaf.save_checkpoint(model, out / "model.ckpt")
