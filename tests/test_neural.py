import math

import numpy as np
import pytest

from phocqa import neural as nn

from conftest import draw_blstm, draw_lstm
from oracles import adadelta_reference, finite_difference_check


def sum_of_squares(x: nn.Tensor) -> nn.Tensor:
    """x . x as a scalar: x as a (1, n) matrix times x as an (n,) vector."""
    return nn.reshape(nn.matmul(nn.reshape(x, (1, -1)), nn.reshape(x, (-1,))), ())


def tape_nodes(out: nn.Tensor) -> int:
    """Number of distinct tensors reachable from `out` through its parents."""
    seen, todo = set(), [out]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


def dense(x, W, b):
    return nn.add(nn.matmul(W, x), b)


class TestDense:
    def test_identity(self):
        x = nn.Tensor([1.0, -2.0, 3.0])
        out = dense(x, nn.Tensor(np.eye(3)), nn.Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.values, x.values)

    def test_zero_weights_give_bias(self):
        out = dense(nn.Tensor([1.0, 2.0]), nn.Tensor(np.zeros((3, 2))), nn.Tensor([4.0, 5.0, 6.0]))
        np.testing.assert_array_equal(out.values, [4.0, 5.0, 6.0])

    def test_random_case_matches_manual(self, rng):
        W = rng.standard_normal((3, 4))
        x = rng.standard_normal(4)
        b = rng.standard_normal(3)
        out = dense(nn.Tensor(x), nn.Tensor(W), nn.Tensor(b))
        np.testing.assert_allclose(out.values, W @ x + b, atol=1e-15)

    def test_bias_gradient_is_upstream(self, rng):
        W = nn.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = nn.Tensor(rng.standard_normal(3), requires_grad=True)
        out = dense(nn.Tensor(rng.standard_normal(4)), W, b)
        nn.backward(nn.reshape(nn.matmul(nn.Tensor([[1.0, 2.0, 3.0]]), out), ()))
        np.testing.assert_allclose(b.grad, [1.0, 2.0, 3.0])


class TestMatmul:
    @pytest.mark.parametrize("a, b", [((3,), (3, 2)), ((3,), (3,)), ((2, 3, 4), (4,)), ((2, 3), ())])
    def test_rejects_shapes_other_than_matrix_times_matrix_or_vector(self, a, b):
        with pytest.raises(ValueError, match="matmul takes a matrix times a matrix or a vector"):
            nn.matmul(nn.Tensor(np.ones(a)), nn.Tensor(np.ones(b)))


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
        np.testing.assert_allclose(nn.softmax(nn.Tensor([0.0, 0.0])).values, [0.5, 0.5])

    def test_constant_vector_uniform(self):
        np.testing.assert_allclose(nn.softmax(nn.Tensor([3.0, 3.0, 3.0])).values, np.full(3, 1 / 3))

    def test_shift_invariance(self, rng):
        z = rng.standard_normal(7)
        a = nn.softmax(nn.Tensor(z)).values
        b = nn.softmax(nn.Tensor(z + 123.456)).values
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert np.argmax(a) == np.argmax(b)

    def test_sums_to_one(self, rng):
        for _ in range(20):
            p = nn.softmax(nn.Tensor(rng.standard_normal(9) * 10)).values
            assert abs(p.sum() - 1.0) < 1e-9
            assert (p > 0).all()

    def test_large_logits_stable(self):
        p = nn.softmax(nn.Tensor([1000.0, 999.0])).values
        assert np.isfinite(p).all()

    def test_rows_equal_vectors_bit_exact(self, rng):
        z = rng.standard_normal((4, 6)) * 5
        rows = nn.softmax(nn.Tensor(z)).values
        for r in range(4):
            np.testing.assert_array_equal(rows[r], nn.softmax(nn.Tensor(z[r])).values)


class TestCrossEntropy:
    def test_certain_prediction(self):
        assert nn.cross_entropy(nn.Tensor([0.0, 1.0]), 1).values == pytest.approx(0.0)

    def test_uniform(self):
        n = 5
        assert nn.cross_entropy(nn.Tensor(np.full(n, 1 / n)), 2).values == pytest.approx(math.log(n))

    def test_quarter(self):
        assert nn.cross_entropy(nn.Tensor([0.25, 0.75]), 0).values == pytest.approx(math.log(4))

    def test_clamps_at_zero_probability(self):
        assert np.isfinite(nn.cross_entropy(nn.Tensor([0.0, 1.0]), 0).values)

    def test_softmax_xent_gradient(self):
        logits = nn.Tensor([0.0, 0.0], requires_grad=True)
        loss = nn.cross_entropy(nn.softmax(logits), 0)
        nn.backward(loss)
        np.testing.assert_allclose(logits.grad, [-0.5, 0.5], atol=1e-12)


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
        Hv = rng.standard_normal((3, 4))
        Uv = rng.standard_normal((2, 4))
        ws = nn.Tensor(rng.standard_normal(12), requires_grad=True)

        def loss_fn():
            return sum_of_squares(nn.c2q_attention(nn.Tensor(Hv), nn.Tensor(Uv), ws))

        assert finite_difference_check(loss_fn, {"ws": ws}) <= 1e-4


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
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
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
        W = nn.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = nn.Tensor(rng.standard_normal(3), requires_grad=True)
        x = rng.standard_normal(4)

        def loss_fn():
            return nn.cross_entropy(nn.softmax(dense(nn.Tensor(x), W, b)), 1)

        assert finite_difference_check(loss_fn, {"W": W, "b": b}) <= 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_blstm_with_heads(self, seed):
        rng = np.random.default_rng(seed)
        fwd, bwd = draw_blstm(3, 3, rng)
        w = nn.Tensor(rng.standard_normal(6), requires_grad=True)
        xs = rng.standard_normal((4, 3))
        params = {"fW": fwd[0], "fb": fwd[1], "bW": bwd[0], "bb": bwd[1], "w": w}

        def loss_fn():
            out = nn.blstm_matrix(nn.Tensor(xs), fwd, bwd)
            return nn.cross_entropy(nn.softmax(nn.matmul(out, w)), 2)

        assert finite_difference_check(loss_fn, params) <= 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_lstm_input(self, seed):
        # X as the only trainable leaf checks the hand-written dX alone
        rng = np.random.default_rng(seed)
        X = nn.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        p = draw_blstm(3, 3, rng)
        w = nn.Tensor(rng.standard_normal(6))

        def loss_fn():
            return nn.cross_entropy(nn.softmax(nn.matmul(nn.blstm_matrix(X, *p), w)), 1)

        assert finite_difference_check(loss_fn, {"X": X}) <= 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_attention(self, seed):
        rng = np.random.default_rng(seed)
        Hv = rng.standard_normal((4, 4))
        Uv = rng.standard_normal((3, 4))
        ws = nn.Tensor(rng.standard_normal(12), requires_grad=True)
        w_out = nn.Tensor(rng.standard_normal(4), requires_grad=True)

        def loss_fn():
            att = nn.c2q_attention(nn.Tensor(Hv), nn.Tensor(Uv), ws)
            return nn.cross_entropy(nn.softmax(nn.matmul(att, w_out)), 0)

        assert finite_difference_check(loss_fn, {"ws": ws, "w_out": w_out}) <= 1e-4
