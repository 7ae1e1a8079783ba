"""BiDAF-style span prediction over PHOC inputs, at line or word granularity.

The context encoder sees each document word's PHOC, in line mode with a
sinusoidal encoding of its line index appended.  Context and question go
through separate BLSTM encoders, context positions attend over the question,
the concatenated representations pass a two-stage modeling BLSTM, and two
linear heads produce start and end logits (per line after summing word
outputs by line membership, or per word).  Training minimizes span_loss,
the sum of the two heads' negative log-likelihoods of the gold span.
Confidence is the sum of the pre-softmax logits at the predicted span.
The loss tape uses every operation of phocqa.neural: dropout,
blstm_matrix, c2q_attention, concat, line_sums (line mode's per-line sums),
linear and span_loss.

parameter_layout is the one list of the model's parameters: each name,
shape and initialization fan-in.  A model is a dict of named Tensors that
BidafModel(config, seed) draws in layout order, and whose order, the
BLSTMs first, is the order of parameters() and of the keys save_checkpoint
writes.  load_checkpoint checks an archive against the layout and builds
the dict straight from its arrays.
"""

from __future__ import annotations

import json
import math
import tokenize
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from .corpus import AnswerPrediction, Document, Question, parse_json, unpack_phocs
from .neural import (
    AdadeltaState,
    Tensor,
    adadelta_step,
    backward,
    blstm_matrix,
    c2q_attention,
    concat,
    dropout,
    line_sums,
    linear,
    span_loss,
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


def line_positional_encoding(line_index: int | np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal encoding: pe[2i] = sin(pos/10000^(2i/dim)), pe[2i+1] = cos(...).
    An integer array of line indices gets one row per entry."""
    if dim % 2 != 0:
        raise ValueError("positional encoding dimension must be even")
    lines = np.asarray(line_index)
    if (lines < 0).any():
        raise ValueError("line_index must be non-negative")
    i = np.arange(dim // 2)
    angle = lines[..., None] / np.power(10000.0, 2.0 * i / dim)
    pe = np.empty(lines.shape + (dim,))
    pe[..., 0::2] = np.sin(angle)
    pe[..., 1::2] = np.cos(angle)
    return pe


def parameter_layout(config: BidafConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan_in) of every model parameter, in the order a seeded
    model draws them.  An LSTM direction is a fused (W, b) pair named
    '<blstm>.<fwd|bwd>.<W|b>'; every parameter is drawn uniformly from
    +-1/sqrt(fan_in)."""
    h = config.hidden

    def blstm(name: str, input_dim: int) -> list[tuple[str, tuple[int, ...], int]]:
        fan_in = input_dim + h
        return [
            (f"{name}.{d}.{p}", shape, fan_in)
            for d in ("fwd", "bwd")
            for p, shape in (("W", (4 * h, fan_in)), ("b", (4 * h,)))
        ]

    return [
        *blstm("ctx_enc", config.context_input_dim),
        *blstm("q_enc", config.phoc_dim),
        ("att_ws", (6 * h,), 6 * h),
        *blstm("model1", 4 * h),
        *blstm("model2", 2 * h),
        ("w_start", (2 * h,), 2 * h),
        ("b_start", (), 2 * h),
        *blstm("end_blstm", 2 * h),
        ("w_end", (2 * h,), 2 * h),
        ("b_end", (), 2 * h),
    ]


class BidafModel:
    """Named parameter Tensors plus optimizer state; see the module docstring
    for the wiring and parameter_layout for the names and shapes."""

    def __init__(self, config: BidafConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        drawn = {}
        for name, shape, fan_in in parameter_layout(config):
            bound = 1.0 / math.sqrt(fan_in)
            drawn[name] = rng.uniform(-bound, bound, size=shape)
        self._adopt(config, drawn)

    def _adopt(self, config: BidafConfig, arrays: dict[str, np.ndarray]) -> None:
        self.config = config
        # the BLSTMs first, then the other parameters, each group in draw order
        names = sorted(arrays, key=lambda name: "." not in name)
        self.params = {name: Tensor(arrays[name], requires_grad=True) for name in names}
        self.optimizer = AdadeltaState()

    def parameters(self) -> dict[str, Tensor]:
        """The model's parameters by name, in checkpoint order; the dict is
        the model's own, so an update to a Tensor updates the model."""
        return self.params

    def blstm(self, name: str) -> tuple[tuple[Tensor, Tensor], tuple[Tensor, Tensor]]:
        """The forward and backward (W, b) pairs of the BLSTM `name`."""
        p = self.params
        return tuple((p[f"{name}.{d}.W"], p[f"{name}.{d}.b"]) for d in ("fwd", "bwd"))


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
        ctx = np.concatenate([ctx, line_positional_encoding(document.word_lines, cfg.pos_dim)], axis=1)
    ctx_in = drop(Tensor(ctx))
    q_in = drop(Tensor(np.stack(question)))
    p = model.params
    H = blstm_matrix(ctx_in, *model.blstm("ctx_enc"))  # T x 2h
    U = blstm_matrix(q_in, *model.blstm("q_enc"))  # J x 2h
    attended = c2q_attention(H, U, p["att_ws"])  # T x 2h
    G = concat([H, attended])  # T x 4h
    M = blstm_matrix(drop(blstm_matrix(drop(G), *model.blstm("model1"))), *model.blstm("model2"))  # T x 2h

    reps = line_sums(M, document.word_lines) if cfg.mode == "line" else M  # L x 2h or T x 2h

    start_logits = linear(reps, p["w_start"], p["b_start"])
    end_out = blstm_matrix(drop(reps), *model.blstm("end_blstm"))
    end_logits = linear(end_out, p["w_end"], p["b_end"])
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
    return span_loss(start_logits, end_logits, gold)


def train(
    model: BidafModel,
    examples: list[tuple[Document, Question]],
    epochs: int,
    seed: int,
) -> list[float]:
    """Batch-size-1 training: one ADADELTA step per example, shuffled per
    epoch; returns the mean loss per epoch.  Deterministic given seed.
    A negative epoch count raises ValueError."""
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    mode = model.config.mode
    prepared = [(doc, q.query, _gold_span(q, doc, mode)) for doc, q in examples]

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
    hits = 0
    for doc, q in examples:
        pred = predict(doc, q.query, model)
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


_NPY_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0, (2, 0): np.lib.format.read_array_header_2_0}
# what zipfile and the .npy header parser raise on a damaged file (EOFError: a
# member shorter than its sizes; RuntimeError: a member flagged as encrypted)
_UNREADABLE = (
    EOFError, NotImplementedError, RuntimeError, SyntaxError, ValueError, zipfile.BadZipFile, tokenize.TokenError
)


def _read_npy(member, name: str) -> np.ndarray:
    """The array of one .npy archive member, read to its end so that zipfile
    checks its CRC; the data must be exactly as long as the header says, and
    is compared before any array is made, so a header cannot make the reader
    allocate more than the file holds."""
    version = np.lib.format.read_magic(member)
    if version not in _NPY_HEADER_READERS:
        raise ValueError(f"member {name!r} has .npy version {version}")
    shape, fortran_order, dtype = _NPY_HEADER_READERS[version](member)
    data = member.read()
    if len(data) != math.prod(shape) * dtype.itemsize:
        raise ValueError(f"member {name!r} holds {len(data)} bytes for a {shape} {dtype} array")
    return np.frombuffer(data, dtype).reshape(shape, order="F" if fortran_order else "C")


def _read_archive(path) -> dict[str, np.ndarray]:
    """Every array of the .npz archive at `path`, keyed by member name less
    '.npy', in archive order; a file that is not such an archive raises
    ValueError naming it."""
    arrays = {}
    try:
        with zipfile.ZipFile(path) as archive:
            for name in archive.namelist():
                with archive.open(name) as member:
                    arrays[name.removesuffix(".npy")] = _read_npy(member, name)
    except _UNREADABLE as e:
        raise ValueError(f"{path}: not a readable checkpoint archive ({type(e).__name__}: {e})") from None
    return arrays


def load_checkpoint(path) -> BidafModel:
    """Load a model saved by save_checkpoint, building its parameters from
    the archive's arrays without drawing any.  The archive must hold exactly
    the parameters parameter_layout lists for its config, each with its
    shape, and optimizer averages only for those parameters, all finite;
    anything else, a missing '__meta__' key, a config field BidafConfig
    lacks or rejects, a non-finite optimizer setting or a file that is not
    an .npz archive raises ValueError naming the key, field or file."""
    arrays = _read_archive(path)
    if "__meta__" not in arrays:
        raise ValueError("checkpoint lacks key '__meta__'")
    meta = parse_json(bytes(arrays.pop("__meta__")), f"{path}: checkpoint '__meta__'")
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
    # shapes are only compared, so a config that does not fit (a huge hidden size) allocates nothing
    shapes = {name: shape for name, shape, _ in parameter_layout(config)}
    for name in shapes:
        if f"p:{name}" not in arrays:
            raise ValueError(f"checkpoint lacks parameter key 'p:{name}'")
    for key, values in arrays.items():
        kind, _, name = key.partition(":")
        if kind not in ("p", "eg2", "edx2") or name not in shapes:
            raise ValueError(f"unknown key {key!r} in checkpoint")
        if values.shape != shapes[name]:
            cfg = f"hidden={config.hidden}, pos_dim={config.pos_dim}, mode={config.mode!r}"
            raise ValueError(
                f"shape mismatch for checkpoint key {key!r}: {values.shape}, but config {cfg} needs {shapes[name]}"
            )
        if values.dtype.kind != "f":
            raise ValueError(f"checkpoint key {key!r} holds {values.dtype} values, not floating point")
        arrays[key] = values = values.astype(np.float64, order="C")  # adadelta_step sweeps flat views
        if not np.isfinite(values).all():
            raise ValueError(f"checkpoint key {key!r} holds a non-finite value")
    model = BidafModel.__new__(BidafModel)
    model._adopt(config, {name: arrays[f"p:{name}"] for name in shapes})
    model.optimizer = AdadeltaState(**{name: opt[name] for name in ("lr", "rho", "eps") if name in opt})
    for key, values in arrays.items():
        kind, _, name = key.partition(":")
        if kind != "p":
            getattr(model.optimizer, kind)[name] = values
    return model
