import math

import numpy as np
import pytest

from phocqa import neural as nn

from conftest import draw_blstm, draw_heads, draw_lstm, heads_loss, tape_nodes
from oracles import (
    adadelta_reference,
    c2q_gradient_reference,
    finite_difference_check,
    line_sums_reference,
    linear_reference,
    span_loss_reference,
)


def sum_of_squares(x: nn.Tensor) -> nn.Tensor:
    """The sum of the squares of x's entries, as a scalar tape node whose
    backward pass adds 2x times the upstream gradient into x."""

    def bw(g):
        if x.requires_grad:
            x._accum(2.0 * g * x.values)

    return nn.Tensor(np.sum(x.values * x.values), (x,), bw)


class TestDense:
    """linear: a dense layer with one output per row, x @ w + b."""

    def test_identity(self, rng):
        # a unit weight reads one column of x
        x = nn.Tensor(rng.standard_normal((4, 3)))
        out = nn.linear(x, nn.Tensor([0.0, 1.0, 0.0]), nn.Tensor(0.0))
        np.testing.assert_array_equal(out.values, x.values[:, 1])

    def test_zero_weights_give_bias(self):
        out = nn.linear(nn.Tensor(np.ones((3, 2))), nn.Tensor(np.zeros(2)), nn.Tensor(4.0))
        np.testing.assert_array_equal(out.values, [4.0, 4.0, 4.0])

    def test_random_case_matches_manual(self, rng):
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal(4)
        b = rng.standard_normal()
        out = nn.linear(nn.Tensor(x), nn.Tensor(w), nn.Tensor(b))
        np.testing.assert_allclose(out.values, x @ w + b, atol=1e-15)

    def test_bias_gradient_is_upstream(self, rng):
        w = nn.Tensor(rng.standard_normal(4), requires_grad=True)
        b = nn.Tensor(rng.standard_normal(), requires_grad=True)
        out = nn.linear(nn.Tensor(rng.standard_normal((3, 4))), w, b)
        # the upstream gradient of sum_of_squares is 2 * out, summed over the rows
        nn.backward(sum_of_squares(out))
        assert b.grad.shape == ()
        assert b.grad == pytest.approx(2.0 * out.values.sum(), rel=1e-15)

    @pytest.mark.parametrize("T, d", [(1, 1), (1, 5), (4, 1), (3, 4), (9, 6), (17, 3)])
    def test_values_and_gradients_match_scalar_loops(self, T, d):
        rng = np.random.default_rng(T * 10 + d)
        x, w, b = (nn.Tensor(rng.standard_normal(shape), requires_grad=True) for shape in ((T, d), (d,), ()))
        out = nn.linear(x, w, b)
        nn.backward(sum_of_squares(out))
        want, *want_grads = linear_reference(x.values, w.values, float(b.values), 2.0 * out.values)
        np.testing.assert_allclose(out.values, want, rtol=0, atol=1e-12)
        for got, expected in zip((x.grad, w.grad, b.grad), want_grads):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_one_tape_node(self, rng):
        sizes = {tape_nodes(nn.linear(nn.Tensor(np.ones((T, 3))), nn.Tensor(np.ones(3)), nn.Tensor(0.0))) for T in (1, 7)}
        assert sizes == {4}  # the three inputs and the head


class TestLineSums:
    """line_sums: the rows of a matrix summed by a line column."""

    LINE_COLUMNS = [[0], [0, 0, 0, 0], [0, 1, 2, 3, 4], [0, 0, 1, 1, 1, 2], [0, 1, 1, 2, 2, 2, 2, 3, 4, 4]]
    IDS = ["T1", "one-line", "word-per-line", "mixed", "ten-words"]

    @pytest.mark.parametrize("lines", LINE_COLUMNS, ids=IDS)
    @pytest.mark.parametrize("d", [1, 6])
    def test_values_and_gradients_match_scalar_loops(self, lines, d):
        rng = np.random.default_rng(len(lines) * 10 + d)
        word_lines = np.array(lines, dtype=np.intp)
        x = nn.Tensor(rng.standard_normal((len(lines), d)), requires_grad=True)
        out = nn.line_sums(x, word_lines)
        nn.backward(sum_of_squares(out))
        want, want_grad = line_sums_reference(x.values, lines, 2.0 * out.values)
        np.testing.assert_allclose(out.values, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, want_grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lines", LINE_COLUMNS, ids=IDS)
    def test_bytes_equal_the_dense_line_matrix_products(self, lines):
        # the forward pass is the product with the 0/1 line matrix, whose
        # bytes a reduceat sum does not keep; the backward gather is
        # exactly that matrix's transpose times the gradient
        rng = np.random.default_rng(len(lines))
        word_lines = np.array(lines, dtype=np.intp)
        agg = np.zeros((word_lines[-1] + 1, len(lines)))
        agg[word_lines, np.arange(len(lines))] = 1.0
        x = nn.Tensor(rng.standard_normal((len(lines), 200)), requires_grad=True)
        out = nn.line_sums(x, word_lines)
        g = rng.standard_normal(out.shape)
        out._backward(g)
        assert out.values.tobytes() == (agg @ x.values).tobytes()
        assert x.grad.tobytes() == (agg.T @ g).tobytes()

    def test_gradients(self, rng):
        x = nn.Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        word_lines = np.array([0, 0, 1, 2, 2, 2, 3], dtype=np.intp)
        heads = draw_heads(3, rng, requires_grad=False)
        assert finite_difference_check(lambda: heads_loss(nn.line_sums(x, word_lines), heads, (1, 2)), {"x": x}) <= 1e-4

    def test_one_tape_node(self):
        sizes = {tape_nodes(nn.line_sums(nn.Tensor(np.ones((T, 3))), np.arange(T) // 2)) for T in (1, 7)}
        assert sizes == {2}  # the input and the sums


def scalar_lstm(W: np.ndarray, b: np.ndarray, xs: np.ndarray, reverse: bool) -> np.ndarray:
    """Hidden states of one LSTM direction, one scalar at a time."""
    T, d = xs.shape
    hidden = len(b) // 4
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    h, c = [0.0] * hidden, [0.0] * hidden
    out = np.zeros((T, hidden))
    for t in (range(T - 1, -1, -1) if reverse else range(T)):
        xh = list(xs[t]) + h
        z = [sum(W[k, j] * xh[j] for j in range(d + hidden)) + b[k] for k in range(4 * hidden)]
        i = [sig(v) for v in z[:hidden]]
        f = [sig(v) for v in z[hidden : 2 * hidden]]
        o = [sig(v) for v in z[2 * hidden : 3 * hidden]]
        g = [math.tanh(v) for v in z[3 * hidden :]]
        c = [f[u] * c[u] + i[u] * g[u] for u in range(hidden)]
        h = [o[u] * math.tanh(c[u]) for u in range(hidden)]
        out[t] = h
    return out


class TestLstmStep:
    """The per-step recurrence of lstm_sequence, with the carried h/c state."""

    def zero_params(self, d, h):
        return nn.Tensor(np.zeros((4 * h, d + h)), requires_grad=True), nn.Tensor(np.zeros(4 * h), requires_grad=True)

    def test_zero_weights_zero_output(self):
        p = self.zero_params(3, 2)
        for reverse in (False, True):
            out = nn.lstm_sequence(nn.Tensor(np.ones((3, 3))), *p, reverse=reverse)
            np.testing.assert_array_equal(out.values, np.zeros((3, 2)))

    def test_scalar_oracle(self, rng):
        # independent per-gate computation with scalar math over 3 steps
        W, b = draw_lstm(2, 2, rng)
        xs = rng.standard_normal((3, 2))
        for reverse in (False, True):
            out = nn.lstm_sequence(nn.Tensor(xs), W, b, reverse=reverse).values
            expected = scalar_lstm(W.values, b.values, xs, reverse)
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)

    def test_gradients(self, rng):
        W, b = draw_lstm(3, 2, rng)
        xs = rng.standard_normal((3, 3))
        for reverse in (False, True):

            def loss_fn():
                return sum_of_squares(nn.lstm_sequence(nn.Tensor(xs), W, b, reverse=reverse))

            assert finite_difference_check(loss_fn, {"W": W, "b": b}) <= 1e-4


class TestBlstm:
    def test_length_one(self, rng):
        p = draw_blstm(3, 2, rng)
        out = nn.blstm_matrix(nn.Tensor(rng.standard_normal((1, 3))), *p)
        assert out.values.shape == (1, 4)

    def test_reversal_consistency_bit_exact(self, rng):
        fwd, bwd = draw_blstm(3, 4, rng)
        xs = rng.standard_normal((6, 3))
        out = nn.blstm_matrix(nn.Tensor(xs), fwd, bwd).values
        # the backward half on xs is the forward half of a run with the two
        # directions swapped on the reversed rows, read back to front
        out_swapped = nn.blstm_matrix(nn.Tensor(xs[::-1]), bwd, fwd).values
        np.testing.assert_array_equal(out[:, 4:], out_swapped[::-1, :4])
        np.testing.assert_array_equal(out[:, :4], out_swapped[::-1, 4:])

    def test_gradients(self, rng):
        fwd, bwd = draw_blstm(2, 2, rng)
        xs = rng.standard_normal((4, 2))
        params = {"fW": fwd[0], "fb": fwd[1], "bW": bwd[0], "bb": bwd[1]}

        def loss_fn():
            return sum_of_squares(nn.blstm_matrix(nn.Tensor(xs), fwd, bwd))

        assert finite_difference_check(loss_fn, params) <= 1e-4

    def test_tape_size_independent_of_length(self, rng):
        p = draw_blstm(3, 2, rng)
        sizes = {tape_nodes(nn.blstm_matrix(nn.Tensor(rng.standard_normal((T, 3))), *p)) for T in (1, 5, 40)}
        # X, two (W, b) pairs, one node per direction and their concat
        assert sizes == {8}


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(nn._softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_constant_vector_uniform(self):
        np.testing.assert_allclose(nn._softmax(np.array([3.0, 3.0, 3.0])), np.full(3, 1 / 3))

    def test_shift_invariance(self, rng):
        z = rng.standard_normal(7)
        a = nn._softmax(z)
        b = nn._softmax(z + 123.456)
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert np.argmax(a) == np.argmax(b)

    def test_sums_to_one(self, rng):
        for _ in range(20):
            p = nn._softmax(rng.standard_normal(9) * 10)
            assert abs(p.sum() - 1.0) < 1e-9
            assert (p > 0).all()

    def test_large_logits_stable(self):
        p = nn._softmax(np.array([1000.0, 999.0]))
        assert np.isfinite(p).all()

    def test_rows_equal_vectors_bit_exact(self, rng):
        z = rng.standard_normal((4, 6)) * 5
        rows = nn._softmax(z)
        for r in range(4):
            np.testing.assert_array_equal(rows[r], nn._softmax(z[r]))


class TestCrossEntropy:
    """span_loss: the sum of the start and end heads' cross-entropies."""

    def test_certain_prediction(self):
        loss = nn.span_loss(nn.Tensor([0.0, 100.0]), nn.Tensor([100.0, 0.0]), (1, 0))
        assert loss.values == pytest.approx(0.0, abs=1e-40)

    def test_uniform(self):
        n = 5
        loss = nn.span_loss(nn.Tensor(np.zeros(n)), nn.Tensor(np.zeros(n)), (2, 4))
        assert loss.values == pytest.approx(2 * math.log(n))

    def test_quarter(self):
        # softmax([0, log 3]) is [0.25, 0.75]
        loss = nn.span_loss(nn.Tensor([0.0, math.log(3)]), nn.Tensor([math.log(3), 0.0]), (0, 1))
        assert loss.values == pytest.approx(2 * math.log(4))

    def test_clamps_at_zero_probability(self):
        # exp(-1000) underflows, so the start head's gold probability is exactly 0
        start = nn.Tensor([0.0, -1000.0], requires_grad=True)
        end = nn.Tensor([1.0, 2.0], requires_grad=True)
        loss = nn.span_loss(start, end, (1, 0))
        assert loss.values == pytest.approx(-math.log(1e-12) + math.log(1.0 + math.e))
        nn.backward(loss)
        assert start.grad is None  # a head below the clamp gets no gradient
        np.testing.assert_allclose(end.grad, nn._softmax(end.values) - [1.0, 0.0], atol=1e-15)

    def test_softmax_xent_gradient(self):
        logits = nn.Tensor([0.0, 0.0], requires_grad=True)
        loss = nn.span_loss(logits, nn.Tensor([1.0, 2.0, 3.0]), (0, 2))
        nn.backward(loss)
        np.testing.assert_allclose(logits.grad, [-0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize(
        "T, gold, below_clamp",
        [(1, (0, 0), False), (2, (1, 0), False), (5, (0, 4), False), (8, (3, 3), False), (13, (12, 2), False),
         pytest.param(6, (2, 5), True, id="below-clamp")],
    )
    def test_values_and_gradients_match_scalar_loops(self, T, gold, below_clamp):
        rng = np.random.default_rng(T)
        start, end = (nn.Tensor(rng.standard_normal(T) * 3, requires_grad=True) for _ in range(2))
        if below_clamp:
            # a gold probability near 1e-13: an unskipped head would get a gradient of about 0.1
            start.values[gold[0]] = start.values.max() - 30.0
        loss = nn.span_loss(start, end, gold)
        nn.backward(loss)
        want, *want_grads = span_loss_reference(start.values, end.values, gold)
        assert loss.values == pytest.approx(want, rel=0, abs=1e-12)
        for got, expected in zip((start.grad, end.grad), want_grads):
            np.testing.assert_allclose(np.zeros(T) if got is None else got, expected, rtol=0, atol=1e-12)

    def test_one_tape_node(self):
        sizes = {tape_nodes(nn.span_loss(nn.Tensor(np.zeros(T)), nn.Tensor(np.ones(T)), (0, T - 1))) for T in (1, 9)}
        assert sizes == {3}  # both heads' logits and the loss


class TestDropout:
    def test_rate_zero_identity(self, rng):
        x = nn.Tensor([1.0, 2.0])
        assert nn.dropout(x, 0.0, rng, training=True) is x

    def test_eval_mode_identity(self, rng):
        x = nn.Tensor([1.0, 2.0])
        assert nn.dropout(x, 0.5, rng, training=False) is x

    def test_survivor_fraction(self):
        rng = np.random.default_rng(3)
        x = nn.Tensor(np.ones(100_000))
        out = nn.dropout(x, 0.2, rng, training=True).values
        frac = np.count_nonzero(out) / out.size
        se = math.sqrt(0.2 * 0.8 / out.size)
        assert abs(frac - 0.8) < 3 * se
        # survivors are rescaled so the expectation is preserved
        np.testing.assert_allclose(out[out != 0], 1.0 / 0.8)

    def test_rejects_bad_rate(self, rng):
        with pytest.raises(ValueError):
            nn.dropout(nn.Tensor([1.0]), 1.0, rng, training=True)

    def test_one_tape_node_with_mask_gradient(self, rng):
        x = nn.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        out = nn.dropout(x, 0.4, np.random.default_rng(9), training=True)
        mask = (np.random.default_rng(9).random((5, 3)) >= 0.4) / 0.6
        np.testing.assert_array_equal(out.values, x.values * mask)
        assert tape_nodes(out) == 2
        nn.backward(sum_of_squares(out))
        np.testing.assert_array_equal(x.grad, 2.0 * out.values * mask)


class TestC2QAttention:
    def test_single_question_vector(self, rng):
        H = nn.Tensor(rng.standard_normal((4, 6)))
        u = rng.standard_normal((1, 6))
        out = nn.c2q_attention(H, nn.Tensor(u), nn.Tensor(rng.standard_normal(18)))
        np.testing.assert_allclose(out.values, np.repeat(u, 4, axis=0), atol=1e-12)

    def test_identical_question_vectors(self, rng):
        H = nn.Tensor(rng.standard_normal((3, 4)))
        u = rng.standard_normal(4)
        U = nn.Tensor(np.stack([u, u, u]))
        out = nn.c2q_attention(H, U, nn.Tensor(rng.standard_normal(12)))
        np.testing.assert_allclose(out.values, np.stack([u, u, u]), atol=1e-12)

    def test_matches_brute_force(self, rng):
        T, J, d = 3, 2, 4
        Hv = rng.standard_normal((T, d))
        Uv = rng.standard_normal((J, d))
        ws = rng.standard_normal(3 * d)
        out = nn.c2q_attention(nn.Tensor(Hv), nn.Tensor(Uv), nn.Tensor(ws)).values
        for t in range(T):
            scores = np.array(
                [ws @ np.concatenate([Hv[t], Uv[j], Hv[t] * Uv[j]]) for j in range(J)]
            )
            e = np.exp(scores - scores.max())
            a = e / e.sum()
            np.testing.assert_allclose(out[t], a @ Uv, atol=1e-12)

    def test_gradients(self, rng):
        params = {
            "H": nn.Tensor(rng.standard_normal((3, 4)), requires_grad=True),
            "U": nn.Tensor(rng.standard_normal((2, 4)), requires_grad=True),
            "ws": nn.Tensor(rng.standard_normal(12), requires_grad=True),
        }

        def loss_fn():
            return sum_of_squares(nn.c2q_attention(*params.values()))

        assert finite_difference_check(loss_fn, params) <= 1e-4

    @pytest.mark.parametrize("T, J, d", [(1, 1, 3), (1, 4, 2), (5, 1, 3), (4, 3, 5), (7, 6, 4)])
    def test_gradients_match_brute_force(self, T, J, d):
        rng = np.random.default_rng(T * 100 + J * 10 + d)
        H, U, ws = (nn.Tensor(rng.standard_normal(shape), requires_grad=True) for shape in ((T, d), (J, d), (3 * d,)))
        out = nn.c2q_attention(H, U, ws)
        nn.backward(sum_of_squares(out))
        expected = c2q_gradient_reference(H.values, U.values, ws.values, 2.0 * out.values)
        for got, want in zip((H.grad, U.grad, ws.grad), expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_one_tape_node(self, rng):
        sizes = set()
        for T, J in ((1, 1), (6, 2), (30, 9)):
            H, U = nn.Tensor(rng.standard_normal((T, 4))), nn.Tensor(rng.standard_normal((J, 4)))
            sizes.add(tape_nodes(nn.c2q_attention(H, U, nn.Tensor(rng.standard_normal(12)))))
        assert sizes == {4}  # the three inputs and the attention


class TestAdadelta:
    def test_zero_gradient_no_change(self):
        p = nn.Tensor([1.0, 2.0], requires_grad=True)
        state = nn.AdadeltaState()
        state.eg2["p"] = np.array([4.0, 4.0])
        state.edx2["p"] = np.array([1.0, 1.0])
        nn.adadelta_step({"p": p}, state)
        np.testing.assert_array_equal(p.values, [1.0, 2.0])
        np.testing.assert_allclose(state.eg2["p"], [3.8, 3.8])  # decayed by rho

    def test_first_step_direction(self):
        p = nn.Tensor([1.0, 1.0], requires_grad=True)
        p.grad = np.array([0.5, -2.0])
        state = nn.AdadeltaState()
        before = p.values.copy()
        nn.adadelta_step({"p": p}, state)
        delta = p.values - before
        np.testing.assert_array_equal(np.sign(delta), [-1.0, 1.0])

    def test_repeated_gradient_accumulation(self):
        p = nn.Tensor([0.0], requires_grad=True)
        state = nn.AdadeltaState()  # the averages see only the gradients, whatever the step
        prev = 0.0
        for _ in range(50):
            p.grad = np.array([2.0])
            nn.adadelta_step({"p": p}, state)
            assert state.eg2["p"][0] > prev
            prev = state.eg2["p"][0]
        assert state.eg2["p"][0] == pytest.approx(4.0, rel=0.1)

    @pytest.mark.parametrize("name", ["lr", "rho", "eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, pytest.param(10**400, id="huge-int")])
    def test_rejects_setting_that_is_not_a_finite_number(self, name, value):
        with pytest.raises(ValueError, match=f"optimizer field '{name}' must be a finite number"):
            nn.AdadeltaState(**{name: value})

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("lr", 0.0, "must be > 0, not 0.0"),
            ("lr", -0.5, "must be > 0, not -0.5"),
            ("rho", 0, r"must be in \(0, 1\), not 0"),
            ("rho", 1.0, r"must be in \(0, 1\), not 1.0"),
            ("rho", 1.5, r"must be in \(0, 1\), not 1.5"),
            ("eps", 0, "must be > 0, not 0"),
            ("eps", -1e-6, "must be > 0, not -1e-06"),
        ],
    )
    def test_rejects_setting_out_of_range(self, name, value, message):
        with pytest.raises(ValueError, match=f"optimizer field '{name}' {message}"):
            nn.AdadeltaState(**{name: value})

    def test_descends_quadratic(self):
        p = nn.Tensor([5.0], requires_grad=True)
        state = nn.AdadeltaState()
        for _ in range(3000):
            p.grad = 2.0 * p.values  # d/dx x^2
            nn.adadelta_step({"p": p}, state)
        assert abs(p.values[0]) < 0.5


BLOCK = nn.ADADELTA_BLOCK
ADADELTA_SHAPES = {
    "0-d": (),
    "1": (1,),
    "block-1": (BLOCK - 1,),
    "block": (BLOCK,),
    "block+1": (BLOCK + 1,),
    "3block+7": (3 * BLOCK + 7,),
    "matrix": (3, BLOCK // 2 + 5),
}


def adadelta_twins(shapes: dict[str, tuple], seed: int):
    """Two identical (params, state) pairs over `shapes`, one for the
    library step and one for the reference."""
    rng = np.random.default_rng(seed)
    values = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    return [
        ({name: nn.Tensor(v.copy(), requires_grad=True) for name, v in values.items()}, nn.AdadeltaState())
        for _ in range(2)
    ]


def assert_same_adadelta_bytes(a, b) -> None:
    (pa, sa), (pb, sb) = a, b
    assert sa.eg2.keys() == sb.eg2.keys() == sa.edx2.keys() == sb.edx2.keys()
    for name in pa:
        assert pa[name].values.tobytes() == pb[name].values.tobytes(), name
        assert sa.eg2[name].tobytes() == sb.eg2[name].tobytes(), name
        assert sa.edx2[name].tobytes() == sb.edx2[name].tobytes(), name


class TestAdadeltaOracle:
    """The blocked sweep against the unblocked per-tensor update in
    tests/oracles.py: parameters and both averages equal byte for byte."""

    @pytest.mark.parametrize("shape", ADADELTA_SHAPES.values(), ids=ADADELTA_SHAPES.keys())
    def test_repeated_steps_bit_identical(self, shape):
        lib, ref = adadelta_twins({"p": shape}, seed=len(shape) + int(np.prod(shape)))
        rng = np.random.default_rng(7)
        for _ in range(6):
            grad = rng.standard_normal(shape) * rng.choice([1e-6, 1.0, 1e3])
            lib[0]["p"].grad = grad
            ref[0]["p"].grad = grad.copy()
            nn.adadelta_step(*lib)
            adadelta_reference(*ref)
            assert_same_adadelta_bytes(lib, ref)

    def test_none_gradient_decays_and_keeps_parameter(self):
        lib, ref = adadelta_twins({"a": (BLOCK + 3,), "b": (), "c": (5,)}, seed=3)
        lib[1].eg2["b"] = np.array(2.0)
        ref[1].eg2["b"] = np.array(2.0)
        for step in range(5):
            for params, _ in (lib, ref):
                for name, p in params.items():
                    # "b" never has a gradient; "a" has none on odd steps
                    missing = name == "b" or (name == "a" and step % 2 == 1)
                    p.grad = None if missing else np.random.default_rng([step, ord(name)]).standard_normal(p.shape)
            before = lib[0]["b"].values.tobytes()
            nn.adadelta_step(*lib)
            adadelta_reference(*ref)
            assert_same_adadelta_bytes(lib, ref)
            assert lib[0]["b"].values.tobytes() == before
        assert lib[1].eg2["b"] == pytest.approx(2.0 * 0.95**5, rel=1e-15)

    def test_rejects_non_contiguous_parameter(self):
        p = nn.Tensor(np.asfortranarray(np.ones((3, 4))), requires_grad=True)
        p.grad = np.ones((3, 4))
        with pytest.raises(ValueError, match="'w'"):
            nn.adadelta_step({"w": p}, nn.AdadeltaState())


class TestPerLayerGradients:
    """Central finite differences for each layer in isolation, 10 seeds."""

    @pytest.mark.parametrize("seed", range(10))
    def test_dense(self, seed):
        rng = np.random.default_rng(seed)
        x = nn.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        heads = draw_heads(4, rng)

        def loss_fn():
            return heads_loss(x, heads, (1, 2))

        assert finite_difference_check(loss_fn, {"x": x, **heads}) <= 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_span_loss(self, seed):
        rng = np.random.default_rng(seed)
        start, end = (nn.Tensor(rng.standard_normal(5) * 2, requires_grad=True) for _ in range(2))

        def loss_fn():
            return nn.span_loss(start, end, (seed % 5, 4 - seed % 5))

        assert finite_difference_check(loss_fn, {"start": start, "end": end}) <= 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_blstm_with_heads(self, seed):
        rng = np.random.default_rng(seed)
        fwd, bwd = draw_blstm(3, 3, rng)
        heads = draw_heads(6, rng)
        xs = rng.standard_normal((4, 3))
        params = {"fW": fwd[0], "fb": fwd[1], "bW": bwd[0], "bb": bwd[1], **heads}

        def loss_fn():
            return heads_loss(nn.blstm_matrix(nn.Tensor(xs), fwd, bwd), heads, (2, 3))

        assert finite_difference_check(loss_fn, params) <= 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_lstm_input(self, seed):
        # X as the only trainable leaf checks the hand-written dX alone
        rng = np.random.default_rng(seed)
        X = nn.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        p = draw_blstm(3, 3, rng)
        heads = draw_heads(6, rng, requires_grad=False)

        def loss_fn():
            return heads_loss(nn.blstm_matrix(X, *p), heads, (1, 1))

        assert finite_difference_check(loss_fn, {"X": X}) <= 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_attention(self, seed):
        rng = np.random.default_rng(seed)
        H = nn.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        U = nn.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        ws = nn.Tensor(rng.standard_normal(12), requires_grad=True)
        heads = draw_heads(4, rng)

        def loss_fn():
            return heads_loss(nn.c2q_attention(H, U, ws), heads, (0, 2))

        assert finite_difference_check(loss_fn, {"H": H, "U": U, "ws": ws, **heads}) <= 1e-4
