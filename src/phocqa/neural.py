"""Minimal trainable numeric kernel: tape-based reverse-mode autodiff over
numpy arrays, with exactly the operations the span-prediction network needs,
plus the ADADELTA update.  The finite-difference gradient checker that
verifies them lives with the tests (tests/oracles.py).

The tape's operations are column concat and six fused ones, each a single
node with a hand-written backward pass: dropout, one LSTM direction
(lstm_sequence, over a fused (W, b) pair of parameter Tensors, with
backpropagation through time), context-to-query attention, the per-line
sums of word rows (line_sums), a linear head (one logit per row) and the
span loss (the sum of two clamped negative log-likelihoods).  The model
therefore adds the same number of nodes to the tape whatever the sequence
lengths.

Everything runs in double precision; determinism requires single-threaded
use and explicit seeded Generators for dropout and initialization.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np


class Tensor:
    """Node of the computation tape.

    `values` is a numpy array; `grad` is filled lazily during backward.
    Leaf tensors created with requires_grad=True are trainable parameters.
    """

    __slots__ = ("values", "grad", "_parents", "_backward", "requires_grad")

    def __init__(self, values, parents=(), backward=None, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)

    @property
    def shape(self):
        return self.values.shape

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            # copy: g may alias the child's gradient buffer
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g


def line_sums(x: Tensor, word_lines: np.ndarray) -> Tensor:
    """Row l of the result is the sum of the rows t of x with
    word_lines[t] == l, for a (T, d) x and a (T,) non-negative integer line
    column, as one tape node; the backward pass hands each row its line's
    gradient.  The forward pass is the dense 0/1 line matrix times x, not
    np.add.reduceat: BLAS adds the rows in another order, so the two differ
    in the last bits, and the trained bytes are those of the product."""
    agg = np.zeros((word_lines.max() + 1, len(word_lines)))
    agg[word_lines, np.arange(len(word_lines))] = 1.0

    def bw(g):
        if x.requires_grad:
            x._accum(g[word_lines])

    return Tensor(agg @ x.values, (x,), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a (T, d) matrix x, a (d,) weight w and a scalar bias b:
    one logit per row of x, as one tape node."""
    xv, wv = x.values, w.values

    def bw(g):
        if x.requires_grad:
            x._accum(np.outer(g, wv))
        if w.requires_grad:
            w._accum(xv.T @ g)
        if b.requires_grad:
            b._accum(g.sum(axis=0))

    return Tensor(xv @ wv + b.values, (x, w, b), bw)


def concat(tensors: list[Tensor]) -> Tensor:
    """Join matrices with the same number of rows column-wise."""
    offsets = np.cumsum([0] + [t.values.shape[1] for t in tensors])

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accum(g[:, lo:hi])

    return Tensor(np.concatenate([t.values for t in tensors], axis=1), tuple(tensors), bw)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient at the logits of a softmax with output p and output gradient g."""
    return p * (g - np.sum(g * p, axis=-1, keepdims=True))


def span_loss(start_logits: Tensor, end_logits: Tensor, gold: tuple[int, int]) -> Tensor:
    """-log p_start[gold[0]] - log p_end[gold[1]], each p the softmax of its
    logits and each probability clamped at 1e-12 from below, as one tape
    node.  A head whose gold probability is below the clamp gets no
    gradient."""
    heads = [(logits, target, _softmax(logits.values)) for logits, target in zip((start_logits, end_logits), gold)]
    clamped = [max(float(p[target]), 1e-12) for _, target, p in heads]

    def bw(g):
        for (logits, target, p), clamped_p in zip(heads, clamped):
            if logits.requires_grad and p[target] >= 1e-12:
                onehot = np.zeros_like(p)
                onehot[target] = -float(g) / clamped_p
                logits._accum(_softmax_grad(p, onehot))

    return Tensor(-math.log(clamped[0]) + -math.log(clamped[1]), (start_logits, end_logits), bw)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: zero entries with probability `rate` and scale
    survivors by 1/(1-rate), as one tape node; identity in evaluation mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if not training or rate == 0.0:
        return x
    mask = (rng.random(x.values.shape) >= rate) / (1.0 - rate)

    def bw(g):
        if x.requires_grad:
            x._accum(g * mask)

    return Tensor(x.values * mask, (x,), bw)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss through the whole tape."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack_ = [loss]
    while stack_:
        node = stack_[-1]
        if id(node) in seen:
            stack_.pop()
            continue
        ready = True
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack_.append(p)
                ready = False
        if ready:
            seen.add(id(node))
            stack_.pop()
            topo.append(node)
    loss.grad = np.ones_like(loss.values)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# LSTM / BLSTM


def lstm_sequence(X: Tensor, W: Tensor, b: Tensor, reverse: bool = False) -> Tensor:
    """One LSTM direction over the rows of X (T x D), as a single tape node.

    W is (4H, D+H) and b is (4H,), with the gates fused in the order i, f,
    o, g; the hidden size H is len(b) // 4.  Returns the (T, H) hidden
    states; row t is the state after reading row t, whichever way the rows
    are read.  The input-side product for all timesteps is one matmul; only
    the recurrent product is sequential.  The forward pass caches the gate
    activations and the states each step reads, and the backward pass runs
    backpropagation through time over them.
    """
    T, D = X.shape
    H = len(b.values) // 4
    Wx = W.values[:, :D]
    Wh = W.values[:, D:]
    Zx = X.values @ Wx.T  # T x 4H
    gates = np.empty((T, 4 * H))  # activations of i, f, o, g
    tanh_c = np.empty((T, H))
    h_prev = np.empty((T, H))
    c_prev = np.empty((T, H))
    out = np.empty((T, H))
    h = np.zeros(H)
    c = np.zeros(H)
    order = range(T - 1, -1, -1) if reverse else range(T)
    for t in order:
        h_prev[t] = h
        c_prev[t] = c
        z = Zx[t] + Wh @ h
        z += b.values
        a = gates[t]
        a[: 3 * H] = 1.0 / (1.0 + np.exp(-z[: 3 * H]))
        a[3 * H :] = np.tanh(z[3 * H :])
        c = a[H : 2 * H] * c + a[:H] * a[3 * H :]
        np.tanh(c, out=tanh_c[t])
        h = out[t] = a[2 * H : 3 * H] * tanh_c[t]

    def bw(g_out):
        i, f, o, g = (gates[:, k * H : (k + 1) * H] for k in range(4))
        # dz/dc for the i, f and g gates and dz/dh for the o gate, per step;
        # none of them depends on the recurrence.
        dz_per = np.empty((T, 4, H))
        dz_per[:, 0] = g * i * (1.0 - i)
        dz_per[:, 1] = c_prev * f * (1.0 - f)
        dz_per[:, 2] = tanh_c * o * (1.0 - o)
        dz_per[:, 3] = i * (1.0 - g * g)
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        dZ = np.empty((T, 4, H))
        dh_next = np.zeros(H)
        dc_next = np.zeros(H)
        for t in reversed(order):
            dh = g_out[t] + dh_next
            dc = dh * dc_dh[t] + dc_next
            np.multiply(dz_per[t], dc, out=dZ[t])
            np.multiply(dz_per[t, 2], dh, out=dZ[t, 2])
            dc_next = dc * f[t]
            dh_next = dZ[t].reshape(-1) @ Wh
        dZ = dZ.reshape(T, 4 * H)
        if X.requires_grad:
            X._accum(dZ @ Wx)
        if W.requires_grad:
            W._accum(np.concatenate([dZ.T @ X.values, dZ.T @ h_prev], axis=1))
        if b.requires_grad:
            b._accum(dZ.sum(axis=0))

    return Tensor(out, (X, W, b), bw)


def blstm_matrix(X: Tensor, fwd: tuple[Tensor, Tensor], bwd: tuple[Tensor, Tensor]) -> Tensor:
    """BLSTM over the rows of X with the (W, b) pairs of the forward and
    backward directions; returns a (T, 2*hidden) tensor."""
    return concat([lstm_sequence(X, *fwd), lstm_sequence(X, *bwd, reverse=True)])


# ---------------------------------------------------------------------------
# Context-to-query attention


def c2q_attention(context: Tensor, question: Tensor, ws: Tensor) -> Tensor:
    """Attend each context row over the question rows, as one tape node.

    Scores are s_tj = ws . [h_t; u_j; h_t*u_j] with a single trainable
    weight vector; each context position gets the softmax-weighted sum of
    the question vectors.  Takes (T, d) and (J, d) tensors and returns a
    (T, d) tensor.  The backward pass adds each term into an input's
    gradient on its own and in a fixed order: floating-point addition does
    not associate, so regrouping the terms changes the trained bytes.
    """
    H, U, w = context.values, question.values, ws.values
    d = H.shape[1]
    w_h, w_u, w_hu = w[:d], w[d : 2 * d], w[2 * d : 3 * d]
    m = H * w_hu
    # s_tj decomposes into a context term, a question term and a bilinear term
    P = _softmax(((H @ w_h)[:, None] + (U @ w_u)[None, :]) + m @ U.T)

    def bw(g):
        gS = _softmax_grad(P, g @ U.T)
        ga, gb, gm = gS.sum(axis=1), gS.sum(axis=0), gS @ U
        if context.requires_grad:
            context._accum(np.outer(ga, w_h))
            context._accum(gm * w_hu)
        if question.requires_grad:
            question._accum(P.T @ g)
            question._accum(np.outer(gb, w_u))
            question._accum((m.T @ gS).T)
        if ws.requires_grad:
            gw = np.zeros_like(w)
            gw[:d] += H.T @ ga
            gw[d : 2 * d] += U.T @ gb
            gw[2 * d : 3 * d] += (gm * H).sum(axis=0)
            ws._accum(gw)

    return Tensor(P @ U, (context, question, ws), bw)


# ---------------------------------------------------------------------------
# ADADELTA


ADADELTA_BLOCK = 16384  # coordinates per sweep block: 128 KiB of float64 per array


@dataclass
class AdadeltaState:
    """Per-parameter running averages of squared gradients and updates.
    A setting that is not a finite number in its range (lr > 0,
    0 < rho < 1, eps > 0) raises ValueError naming it."""

    lr: float = 0.5
    rho: float = 0.95
    eps: float = 1e-6
    eg2: dict[str, np.ndarray] = field(default_factory=dict)
    edx2: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("lr", "rho", "eps"):
            value = getattr(self, name)
            if not (type(value) in (int, float) and abs(value) <= sys.float_info.max):  # a bool or huge int fails
                raise ValueError(f"optimizer field {name!r} must be a finite number, not {value!r}")
        if not self.lr > 0:
            raise ValueError(f"optimizer field 'lr' must be > 0, not {self.lr!r}")
        if not 0 < self.rho < 1:
            raise ValueError(f"optimizer field 'rho' must be in (0, 1), not {self.rho!r}")
        if not self.eps > 0:
            raise ValueError(f"optimizer field 'eps' must be > 0, not {self.eps!r}")


def adadelta_step(params: dict[str, Tensor], state: AdadeltaState) -> None:
    """One ADADELTA update for every parameter, in place; gradients of None
    count as zero (averages still decay).

    The update is elementwise, so each parameter is swept in blocks of
    ADADELTA_BLOCK coordinates through two scratch arrays that stay in
    cache; every coordinate sees the same float operations in the same
    order as the unblocked update.  Parameters and their averages must be
    C-contiguous, because they are updated through flat views.
    """
    rho = state.rho
    one_minus_rho = 1.0 - rho
    eps = state.eps
    neg_lr = -state.lr
    t = np.empty(ADADELTA_BLOCK)
    t2 = np.empty(ADADELTA_BLOCK)
    for name, p in params.items():
        for averages in (state.eg2, state.edx2):
            if name not in averages:  # zeros, allocated on the parameter's first step
                averages[name] = np.zeros_like(p.values)
        eg2, edx2 = state.eg2[name], state.edx2[name]
        if p.grad is None:
            eg2 *= rho
            edx2 *= rho
            continue
        for a in (p.values, eg2, edx2):
            if not a.flags.c_contiguous:
                raise ValueError(f"parameter {name!r}: ADADELTA needs C-contiguous arrays")
        pf, gf, eg2f, edx2f = (a.reshape(-1) for a in (p.values, p.grad, eg2, edx2))
        size = pf.size
        for lo in range(0, size, ADADELTA_BLOCK):
            hi = min(lo + ADADELTA_BLOCK, size)
            pb, gb, e1, e2 = pf[lo:hi], gf[lo:hi], eg2f[lo:hi], edx2f[lo:hi]
            tb, t2b = t[: hi - lo], t2[: hi - lo]
            e1 *= rho
            np.multiply(gb, gb, out=tb)
            tb *= one_minus_rho
            e1 += tb
            np.add(e2, eps, out=tb)
            np.add(e1, eps, out=t2b)
            tb /= t2b
            np.sqrt(tb, out=tb)
            tb *= gb
            e2 *= rho
            np.multiply(tb, tb, out=t2b)
            t2b *= one_minus_rho
            e2 += t2b
            tb *= neg_lr
            pb += tb


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
