"""BiDAF-style span prediction over PHOC inputs, at line or word granularity.

The context encoder sees each document word's PHOC, in line mode with a
sinusoidal encoding of its line index appended.  Context and question go
through separate BLSTM encoders, context positions attend over the question,
the concatenated representations pass a two-stage modeling BLSTM, and two
heads produce start and end logits (per line after summing word outputs by
line membership, or per word).  Confidence is the sum of the pre-softmax
logits at the predicted span.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .corpus import AnswerPrediction, Document, Question, unpack_phocs
from .neural import (
    AdadeltaState,
    Tensor,
    adadelta_step,
    add,
    backward,
    blstm_matrix,
    c2q_attention,
    concat,
    cross_entropy,
    dropout,
    init_blstm,
    matmul,
    softmax,
    uniform_param,
    zero_grads,
)
from .phoc import PHOC_DIM

CHECKPOINT_FORMAT = "phocqa-bidaf-v1"


@dataclass
class BidafConfig:
    phoc_dim: int = PHOC_DIM  # fixed; kept because saved configs carry it
    pos_dim: int = 30
    hidden: int = 100
    dropout_rate: float = 0.2
    mode: str = "line"  # "line" or "word"
    max_span: int | None = None  # answer length cap; default 8 lines / 30 words

    def __post_init__(self):
        if type(self.phoc_dim) is not int or self.phoc_dim != PHOC_DIM:  # the context is always PHOC_DIM wide
            raise ValueError(f"phoc_dim must be {PHOC_DIM}, got {self.phoc_dim!r}")
        if self.mode not in ("line", "word"):
            raise ValueError(f"mode must be 'line' or 'word', got {self.mode!r}")
        if self.max_span is None:
            self.max_span = 8 if self.mode == "line" else 30
        for name, least in (("hidden", 1), ("max_span", 1), ("pos_dim", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:  # exact: a bool is not an integer here
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.pos_dim % 2 != 0:
            raise ValueError(f"pos_dim must be even, got {self.pos_dim}")
        if not (type(self.dropout_rate) in (int, float) and 0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must be a real number in [0, 1), got {self.dropout_rate!r}")

    @property
    def context_input_dim(self) -> int:
        return self.phoc_dim + (self.pos_dim if self.mode == "line" else 0)


def line_positional_encoding(line_index: int, dim: int = 30) -> np.ndarray:
    """Sinusoidal encoding: pe[2i] = sin(pos/10000^(2i/dim)), pe[2i+1] = cos(...)."""
    if dim % 2 != 0:
        raise ValueError("positional encoding dimension must be even")
    if line_index < 0:
        raise ValueError("line_index must be non-negative")
    i = np.arange(dim // 2)
    angle = line_index / np.power(10000.0, 2.0 * i / dim)
    pe = np.empty(dim)
    pe[0::2] = np.sin(angle)
    pe[1::2] = np.cos(angle)
    return pe


class BidafModel:
    """Parameter container plus optimizer state; see module docstring for wiring."""

    def __init__(self, config: BidafConfig, seed: int = 0):
        self.config = config
        h = config.hidden
        rng = np.random.default_rng(seed)
        self.ctx_enc = init_blstm(config.context_input_dim, h, rng)
        self.q_enc = init_blstm(config.phoc_dim, h, rng)
        self.att_ws = uniform_param((6 * h,), 6 * h, rng)
        self.model1 = init_blstm(4 * h, h, rng)
        self.model2 = init_blstm(2 * h, h, rng)
        self.w_start = uniform_param((2 * h,), 2 * h, rng)
        self.b_start = uniform_param((), 2 * h, rng)
        self.end_blstm = init_blstm(2 * h, h, rng)
        self.w_end = uniform_param((2 * h,), 2 * h, rng)
        self.b_end = uniform_param((), 2 * h, rng)
        self.optimizer = AdadeltaState()

    def parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for name, blstm in (
            ("ctx_enc", self.ctx_enc),
            ("q_enc", self.q_enc),
            ("model1", self.model1),
            ("model2", self.model2),
            ("end_blstm", self.end_blstm),
        ):
            for d, lp in (("fwd", blstm.fwd), ("bwd", blstm.bwd)):
                params[f"{name}.{d}.W"] = lp.W
                params[f"{name}.{d}.b"] = lp.b
        params["att_ws"] = self.att_ws
        params["w_start"] = self.w_start
        params["b_start"] = self.b_start
        params["w_end"] = self.w_end
        params["b_end"] = self.b_end
        return params


def _line_aggregation_matrix(document: Document) -> np.ndarray:
    agg = np.zeros((document.num_lines, len(document)))
    agg[document.word_lines, np.arange(len(document))] = 1.0
    return agg


def forward(
    document: Document,
    question: list[np.ndarray],
    model: BidafModel,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """Return (start_logits, end_logits); length = lines in line mode, words
    in word mode.  Dropout applies to BLSTM inputs only, training mode only."""
    cfg = model.config
    if not question:
        raise ValueError("question must be non-empty")
    if training and cfg.dropout_rate > 0.0 and rng is None:
        raise ValueError("training with dropout requires an explicit rng")

    def drop(x: Tensor) -> Tensor:
        return dropout(x, cfg.dropout_rate, rng, training)

    ctx = unpack_phocs(document.rows)
    if cfg.mode == "line":
        pe = np.stack([line_positional_encoding(line, cfg.pos_dim) for line in range(document.num_lines)])
        ctx = np.concatenate([ctx, pe[document.word_lines]], axis=1)
    ctx_in = drop(Tensor(ctx))
    q_in = drop(Tensor(np.stack(question)))
    H = blstm_matrix(ctx_in, model.ctx_enc)  # T x 2h
    U = blstm_matrix(q_in, model.q_enc)  # J x 2h
    attended = c2q_attention(H, U, model.att_ws)  # T x 2h
    G = concat([H, attended], axis=1)  # T x 4h
    M = blstm_matrix(drop(blstm_matrix(drop(G), model.model1)), model.model2)  # T x 2h

    if cfg.mode == "line":
        reps = matmul(Tensor(_line_aggregation_matrix(document)), M)  # L x 2h
    else:
        reps = M

    start_logits = add(matmul(reps, model.w_start), model.b_start)
    end_out = blstm_matrix(drop(reps), model.end_blstm)
    end_logits = add(matmul(end_out, model.w_end), model.b_end)
    return start_logits, end_logits


def constrained_span_argmax(
    start_logits: np.ndarray, end_logits: np.ndarray, max_span: int
) -> tuple[int, int, float]:
    """Maximize start_logits[s] + end_logits[e] over s <= e <= s + max_span - 1.

    One argmax over the (s, e) score matrix with everything outside the band
    (and any NaN score) set to -inf, so the first maximum in row-major
    (s, e) order wins; with no candidate above -inf the result is (0, 0, -inf).
    """
    n = len(start_logits)
    if n == 0:
        return 0, 0, -np.inf
    scores = np.add.outer(start_logits, end_logits)
    offset = np.subtract.outer(np.arange(n), np.arange(n))  # s - e
    scores[(offset > 0) | (offset <= -max_span) | np.isnan(scores)] = -np.inf
    s, e = divmod(int(np.argmax(scores)), n)
    return s, e, scores[s, e]


def predict(document: Document, question: list[np.ndarray], model: BidafModel) -> AnswerPrediction:
    start_logits, end_logits = forward(document, question, model, training=False)
    s, e, conf = constrained_span_argmax(
        start_logits.values, end_logits.values, model.config.max_span
    )
    if model.config.mode == "line":
        return AnswerPrediction(document.doc_id, s, e, float(conf))
    return AnswerPrediction(
        document.doc_id,
        start_line=document.line_of_word(s),
        end_line=document.line_of_word(e),
        confidence=float(conf),
        start_word=s,
        end_word=e,
    )


def _gold_span(question: Question, document: Document, mode: str) -> tuple[int, int]:
    span = question.gold_line_span if mode == "line" else question.gold_word_span
    limit = document.num_lines if mode == "line" else len(document)
    if not (0 <= span[0] <= span[1] < limit):
        raise ValueError(f"question {question.question_id!r}: gold span {span} out of range")
    return span


def example_loss(
    document: Document,
    question_phocs: list[np.ndarray],
    gold: tuple[int, int],
    model: BidafModel,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    start_logits, end_logits = forward(document, question_phocs, model, training=training, rng=rng)
    return add(
        cross_entropy(softmax(start_logits), gold[0]),
        cross_entropy(softmax(end_logits), gold[1]),
    )


def train(
    model: BidafModel,
    examples: list[tuple[Document, Question]],
    epochs: int,
    seed: int,
) -> list[float]:
    """Batch-size-1 training: one ADADELTA step per example, shuffled per
    epoch; returns the mean loss per epoch.  Deterministic given seed."""
    from .corpus import preprocess_query

    mode = model.config.mode
    prepared = [(doc, preprocess_query(q.text)[1], _gold_span(q, doc, mode)) for doc, q in examples]

    params = model.parameters()
    rng = np.random.default_rng(seed)
    trace = []
    for _ in range(epochs):
        order = rng.permutation(len(prepared)) if prepared else []
        total = 0.0
        for idx in order:
            doc, phocs, gold = prepared[idx]
            zero_grads(params)
            loss = example_loss(doc, phocs, gold, model, training=True, rng=rng)
            backward(loss)
            adadelta_step(params, model.optimizer)
            total += float(loss.values)
        trace.append(total / len(prepared) if prepared else 0.0)
    return trace


def span_accuracy(model: BidafModel, examples: list[tuple[Document, Question]]) -> float:
    """Fraction of examples with exactly correct (start, end) at the model's
    granularity."""
    if not examples:
        return 0.0
    from .corpus import preprocess_query

    hits = 0
    for doc, q in examples:
        pred = predict(doc, preprocess_query(q.text)[1], model)
        if model.config.mode == "line":
            got = (pred.start_line, pred.end_line)
        else:
            got = (pred.start_word, pred.end_word)
        if got == _gold_span(q, doc, model.config.mode):
            hits += 1
    return hits / len(examples)


# ---------------------------------------------------------------------------
# Checkpointing


def save_checkpoint(model: BidafModel, path) -> None:
    arrays = {"__meta__": np.frombuffer(
        json.dumps(
            {
                "format": CHECKPOINT_FORMAT,
                "config": asdict(model.config),
                "optimizer": {
                    "lr": model.optimizer.lr,
                    "rho": model.optimizer.rho,
                    "eps": model.optimizer.eps,
                },
            }
        ).encode("utf-8"),
        dtype=np.uint8,
    )}
    for name, p in model.parameters().items():
        arrays[f"p:{name}"] = p.values
    for name, a in model.optimizer.eg2.items():
        arrays[f"eg2:{name}"] = a
    for name, a in model.optimizer.edx2.items():
        arrays[f"edx2:{name}"] = a
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def _check_shape(data, key: str, shape: tuple[int, ...], config: BidafConfig) -> np.ndarray:
    """The array of `key` in the archive, which must have `shape`."""
    if key not in data.files:
        raise ValueError(f"checkpoint lacks parameter key {key!r}")
    values = data[key]
    if values.shape != shape:
        cfg = f"hidden={config.hidden}, pos_dim={config.pos_dim}, mode={config.mode!r}"
        raise ValueError(f"shape mismatch for checkpoint key {key!r}: {values.shape}, but config {cfg} needs {shape}")
    return values


def load_checkpoint(path) -> BidafModel:
    """Load a model saved by save_checkpoint.  The archive must hold exactly
    the parameters of the model its config builds, each with its shape, and
    optimizer averages only for those parameters; anything else, a missing
    '__meta__' key, a config field BidafConfig lacks or rejects or a
    non-finite optimizer setting raises ValueError naming the key or field."""
    with np.load(path) as data:
        if "__meta__" not in data.files:
            raise ValueError("checkpoint lacks key '__meta__'")
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("checkpoint '__meta__' is not a JSON object")
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format: {meta.get('format')!r}")
        config = meta.get("config")
        if not isinstance(config, dict):
            raise ValueError("checkpoint '__meta__' lacks a 'config' object")
        known = {f.name for f in fields(BidafConfig)}
        for name in config:
            if name not in known:
                raise ValueError(f"unknown config field {name!r} in checkpoint")
        config = BidafConfig(**config)
        opt = meta.get("optimizer", {})
        if not isinstance(opt, dict):
            raise ValueError(f"checkpoint '__meta__' field 'optimizer' must be an object, not {opt!r}")
        # before the model is built, so a config that does not fit (a huge hidden size) allocates nothing
        _check_shape(data, "p:ctx_enc.fwd.W", (4 * config.hidden, config.context_input_dim + config.hidden), config)
        model = BidafModel(config, seed=0)
        params = model.parameters()
        for name in params:
            if f"p:{name}" not in data.files:
                raise ValueError(f"checkpoint lacks parameter key 'p:{name}'")
        for key in data.files:
            if key == "__meta__":
                continue
            kind, _, name = key.partition(":")
            if kind not in ("p", "eg2", "edx2") or name not in params:
                raise ValueError(f"unknown key {key!r} in checkpoint")
            values = _check_shape(data, key, params[name].values.shape, config)
            values = values.astype(np.float64, order="C")  # adadelta_step sweeps flat views
            if kind == "p":
                params[name].values = values
            else:
                getattr(model.optimizer, kind)[name] = values
        for name in ("lr", "rho", "eps"):
            value = opt.get(name, getattr(model.optimizer, name))
            if not (type(value) in (int, float) and math.isfinite(value)):
                raise ValueError(f"optimizer field {name!r} must be a finite number, not {value!r}")
            setattr(model.optimizer, name, value)
    return model
