"""Minimal trainable numeric kernel: tape-based reverse-mode autodiff over
numpy arrays, with exactly the operations the span-prediction network needs
(matmul, add, softmax, cross-entropy, dropout, BLSTM, context-to-query
attention) plus the ADADELTA update.  The finite-difference gradient checker
that verifies them lives with the tests (tests/oracles.py).

Each LSTM direction is one tape node (lstm_sequence) over a fused (W, b)
pair of parameter Tensors, whose backward pass is hand-written
backpropagation through time, so a BLSTM adds the same few nodes to the
tape whatever the sequence length.

Everything runs in double precision; determinism requires single-threaded
use and explicit seeded Generators for dropout and initialization.
"""

from __future__ import annotations

import math
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

    def zero_grad(self) -> None:
        self.grad = None

    def _accum(self, g: np.ndarray) -> None:
        g = _unbroadcast(g, self.values.shape)
        if self.grad is None:
            # copy: g may alias the child's gradient buffer
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def __getitem__(self, idx):
        return getitem(self, idx)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the shape of its source."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.values + b.values, (a, b))

    def bw(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(g)

    out._backward = bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.values * b.values, (a, b))

    def bw(g):
        if a.requires_grad:
            a._accum(g * b.values)
        if b.requires_grad:
            b._accum(g * a.values)

    out._backward = bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix times matrix, or matrix times vector; other shapes raise ValueError."""
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim not in (1, 2):
        raise ValueError(f"matmul takes a matrix times a matrix or a vector, not {av.shape} @ {bv.shape}")
    out = Tensor(av @ bv, (a, b))

    def bw(g):
        if a.requires_grad:
            a._accum(g @ bv.T if bv.ndim == 2 else np.outer(g, bv))
        if b.requires_grad:
            b._accum(av.T @ g)

    out._backward = bw
    return out


def getitem(a: Tensor, idx) -> Tensor:
    out = Tensor(a.values[idx], (a,))

    def bw(g):
        if a.requires_grad:
            # accumulate in place; basic indexing never repeats positions
            if a.grad is None:
                a.grad = np.zeros_like(a.values)
            a.grad[idx] += g

    out._backward = bw
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.values.reshape(shape), (a,))

    def bw(g):
        if a.requires_grad:
            a._accum(g.reshape(a.values.shape))

    out._backward = bw
    return out


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.values.T, (a,))

    def bw(g):
        if a.requires_grad:
            a._accum(g.T)

    out._backward = bw
    return out


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(np.concatenate([t.values for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.values.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accum(g[tuple(sl)])

    out._backward = bw
    return out


def softmax(logits: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    z = logits.values - logits.values.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p, (logits,))

    def bw(g):
        if logits.requires_grad:
            logits._accum(p * (g - np.sum(g * p, axis=-1, keepdims=True)))

    out._backward = bw
    return out


def cross_entropy(probs: Tensor, target: int) -> Tensor:
    """-log p[target], with the probability clamped at 1e-12 from below."""
    p = float(probs.values[target])
    clamped = max(p, 1e-12)
    out = Tensor(-math.log(clamped), (probs,))

    def bw(g):
        if probs.requires_grad and p >= 1e-12:
            full = np.zeros_like(probs.values)
            full[target] = -float(g) / clamped
            probs._accum(full)

    out._backward = bw
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: zero entries with probability `rate` and scale
    survivors by 1/(1-rate); identity in evaluation mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if not training or rate == 0.0:
        return x
    mask = (rng.random(x.values.shape) >= rate) / (1.0 - rate)
    return mul(x, Tensor(mask))


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
    return concat([lstm_sequence(X, *fwd), lstm_sequence(X, *bwd, reverse=True)], axis=1)


# ---------------------------------------------------------------------------
# Context-to-query attention


def c2q_attention(context: Tensor, question: Tensor, ws: Tensor) -> Tensor:
    """Attend each context row over the question rows.

    Scores are s_tj = ws . [h_t; u_j; h_t*u_j] with a single trainable
    weight vector; each context position gets the softmax-weighted sum of
    the question vectors.  Takes (T, d) and (J, d) tensors and returns a
    (T, d) tensor.
    """
    H, U = context, question
    T, d = H.shape
    J = U.shape[0]
    w_h, w_u, w_hu = ws[0:d], ws[d : 2 * d], ws[2 * d : 3 * d]
    # s_tj decomposes into a context term, a question term and a bilinear term
    scores = add(
        add(reshape(matmul(H, w_h), (T, 1)), reshape(matmul(U, w_u), (1, J))),
        matmul(mul(H, w_hu), transpose(U)),
    )
    return matmul(softmax(scores), U)


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
            if not (type(value) in (int, float) and math.isfinite(value)):  # exact: a bool is not a number here
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
        p.zero_grad()
