"""Independent brute-force reference implementations used by the tests.

These are written against the definitions directly and deliberately share
no code with the library: occupancy-rule PHOC bits, nested-loop max/mean
document scoring, two-line snippet windows, set-arithmetic DIS, per-word
PHOC bit flips, the unblocked per-tensor ADADELTA update, the double-loop
constrained span argmax, the looped context-to-query attention gradient,
the looped per-line sums and the looped linear head and span loss.  The
one exception is the finite-difference gradient checker at the end: it
takes the analytic gradients from the library's tape and compares them
against central differences of the loss.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from phocqa.neural import Tensor, backward, zero_grads

ORACLE_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
ORACLE_LEVELS = [2, 3, 4, 5]


def phoc_reference(word: str) -> np.ndarray:
    """Occupancy-rule PHOC: walk level blocks in order and test every
    (region, character) pair against every character occurrence."""
    blocks = []
    n = len(word)
    for level in ORACLE_LEVELS:
        for region in range(level):
            r_lo = region / level
            r_hi = (region + 1) / level
            row = np.zeros(len(ORACLE_ALPHABET))
            for i in range(n):
                c_lo = i / n
                c_hi = (i + 1) / n
                overlap = min(c_hi, r_hi) - max(c_lo, r_lo)
                if overlap >= 0.5 * (c_hi - c_lo):
                    row[ORACLE_ALPHABET.index(word[i])] = 1.0
            blocks.append(row)
    return np.concatenate(blocks)


def cosine_reference(a, b) -> float:
    num = sum(x * y for x, y in zip(a, b))
    na = sum(x * x for x in a) ** 0.5
    nb = sum(y * y for y in b) ** 0.5
    if na == 0.0 or nb == 0.0:
        return 0.0
    return num / (na * nb)


def doc_score_reference(doc_vectors, query_vectors) -> float:
    """Nested-loop Eq.-style max/mean, built on the scalar cosine above."""
    per_query = []
    for q in query_vectors:
        best = max(cosine_reference(q, w) for w in doc_vectors)
        per_query.append(best)
    return sum(per_query) / len(per_query)


class Snippet(NamedTuple):
    start_line: int
    end_line: int
    word_ids: tuple[int, ...]


def make_snippets(word_lines) -> list[Snippet]:
    """The two-line windows of a document whose word i lies on line
    word_lines[i]: lines (i, i + 1) for every i, stride 1, or the single
    window (0, 0) for a one-line document, each with the ids of its words."""
    num_lines = max(word_lines) + 1
    windows = [(0, 0)] if num_lines == 1 else [(i, i + 1) for i in range(num_lines - 1)]
    return [Snippet(s, e, tuple(w for w, line in enumerate(word_lines) if s <= line <= e)) for s, e in windows]


def dis_reference(sb: set, lb: set, ab: set) -> float:
    if not ab:
        return 0.0
    return (len(ab & sb) / len(sb)) * (len(ab & lb) / len(ab))


def corrupt_phoc(v: np.ndarray, flip_rate: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit of a binary PHOC, or of a matrix of PHOC rows,
    independently with probability flip_rate."""
    if not 0.0 <= flip_rate <= 1.0:
        raise ValueError(f"flip_rate {flip_rate} outside [0, 1]")
    if v.shape[-1:] != (len(ORACLE_ALPHABET) * sum(ORACLE_LEVELS),):
        raise ValueError("PHOC vectors must have length 504")
    if not np.all((v == 0.0) | (v == 1.0)):
        raise ValueError("corrupt_phoc expects a binary vector")
    flips = rng.random(v.shape) < flip_rate
    return np.abs(v - flips.astype(np.float64))


def adadelta_reference(params, state) -> None:
    """One unblocked ADADELTA update per parameter tensor, in place, with
    full-size temporaries; `params` maps names to objects with `.values` and
    `.grad` (None counts as zero), `state` holds lr, rho, eps and the eg2 and
    edx2 dicts."""
    one_minus_rho = 1.0 - state.rho
    for name, p in params.items():
        eg2 = state.eg2.setdefault(name, np.zeros_like(p.values))
        edx2 = state.edx2.setdefault(name, np.zeros_like(p.values))
        eg2 *= state.rho
        if p.grad is None:
            edx2 *= state.rho
            continue
        g = p.grad
        g2 = np.multiply(g, g)
        g2 *= one_minus_rho
        eg2 += g2
        dx = np.sqrt((edx2 + state.eps) / (eg2 + state.eps))
        dx *= g
        edx2 *= state.rho
        dx2 = np.multiply(dx, dx)
        dx2 *= one_minus_rho
        edx2 += dx2
        dx *= -state.lr
        p.values += dx


def span_argmax_reference(start_logits, end_logits, max_span: int) -> tuple[int, int, float]:
    """Double loop over s <= e <= s + max_span - 1; the first maximum in
    (s, e) row-major order wins."""
    n = len(start_logits)
    best = (0, 0, -np.inf)
    for s in range(n):
        for e in range(s, min(s + max_span, n)):
            v = start_logits[s] + end_logits[e]
            if v > best[2]:
                best = (s, e, v)
    return best


def c2q_gradient_reference(H, U, ws, G) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients at H (T x d), U (J x d) and ws (3d) of sum(G * out), where
    out_t = sum_j a_tj u_j, a_t = softmax_j(s_tj) and
    s_tj = ws . [h_t; u_j; h_t*u_j], one scalar at a time."""
    T, d = H.shape
    J = U.shape[0]
    gH, gU, gws = np.zeros((T, d)), np.zeros((J, d)), np.zeros(3 * d)
    for t in range(T):
        s = [sum(ws[k] * H[t, k] + ws[d + k] * U[j, k] + ws[2 * d + k] * H[t, k] * U[j, k] for k in range(d))
             for j in range(J)]
        e = [math.exp(v - max(s)) for v in s]
        a = [v / sum(e) for v in e]
        # out_t = sum_j a_tj u_j, so dL/da_tj = G_t . u_j and dL/du_j gets a_tj G_t
        ga = [sum(G[t, k] * U[j, k] for k in range(d)) for j in range(J)]
        mean = sum(a[j] * ga[j] for j in range(J))
        for j in range(J):
            gs = a[j] * (ga[j] - mean)
            for k in range(d):
                gU[j, k] += a[j] * G[t, k] + gs * (ws[d + k] + ws[2 * d + k] * H[t, k])
                gH[t, k] += gs * (ws[k] + ws[2 * d + k] * U[j, k])
                gws[k] += gs * H[t, k]
                gws[d + k] += gs * U[j, k]
                gws[2 * d + k] += gs * H[t, k] * U[j, k]
    return gH, gU, gws


def line_sums_reference(x, word_lines, g) -> tuple[np.ndarray, np.ndarray]:
    """out_l = sum of the rows x_t with word_lines[t] == l, for a (T, d) x,
    and the gradient at x of sum(g * out), one scalar at a time."""
    T, d = x.shape
    L = max(word_lines) + 1
    out = np.zeros((L, d))
    for t in range(T):
        for k in range(d):
            out[word_lines[t], k] += x[t, k]
    gx = np.array([[g[word_lines[t], k] for k in range(d)] for t in range(T)])
    return out, gx


def linear_reference(x, w, b, g) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """out_t = sum_k x_tk w_k + b for a (T, d) x, a (d,) w and a scalar b,
    and the gradients at x, w and b of sum(g * out), one scalar at a time."""
    T, d = x.shape
    out = np.array([sum(x[t, k] * w[k] for k in range(d)) + b for t in range(T)])
    gx = np.array([[g[t] * w[k] for k in range(d)] for t in range(T)])
    gw = np.array([sum(x[t, k] * g[t] for t in range(T)) for k in range(d)])
    return out, gx, gw, sum(g[t] for t in range(T))


def span_loss_reference(start_logits, end_logits, gold) -> tuple[float, np.ndarray, np.ndarray]:
    """-log max(p_start[gold[0]], 1e-12) - log max(p_end[gold[1]], 1e-12),
    each p the softmax of its logits, and the gradient at each head's
    logits: p - onehot(target), or zero where p[target] is below the
    clamp, one scalar at a time."""
    loss = 0.0
    grads = []
    for z, target in zip((start_logits, end_logits), gold):
        e = [math.exp(v - max(z)) for v in z]
        p = [v / sum(e) for v in e]
        loss += -math.log(max(p[target], 1e-12))
        below = p[target] < 1e-12
        grads.append(np.array([0.0 if below else p[i] - (i == target) for i in range(len(z))]))
    return loss, grads[0], grads[1]


def finite_difference_check(
    loss_fn,
    params: dict[str, Tensor],
    eps: float = 1e-5,
    max_coords_per_tensor: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic gradients against central finite differences.

    loss_fn() must rebuild the graph from the current parameter values and
    return a scalar Tensor, deterministically.  Returns the maximum relative
    error over all checked coordinates.
    """
    zero_grads(params)
    loss = loss_fn()
    backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.values))
        for name, p in params.items()
    }
    worst = 0.0
    for name, p in params.items():
        flat = p.values.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_tensor is not None and flat.size > max_coords_per_tensor:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(flat.size, size=max_coords_per_tensor, replace=False)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + eps
            up = float(loss_fn().values)
            flat[idx] = orig - eps
            down = float(loss_fn().values)
            flat[idx] = orig
            fd = (up - down) / (2.0 * eps)
            an = analytic[name].reshape(-1)[idx]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst
