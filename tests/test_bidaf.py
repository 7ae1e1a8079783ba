import io
import json
import re
import zipfile

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from phocqa import bidaf
from phocqa import neural as nn
from phocqa.bidaf import (
    BidafConfig,
    BidafModel,
    constrained_span_argmax,
    line_positional_encoding,
)
from phocqa.corpus import preprocess_query
from phocqa.phoc import phoc_encode
from phocqa.synth import GeneratorSpec, generate

from conftest import make_document, npy_bytes, random_word, tape_nodes
from oracles import adadelta_reference, finite_difference_check, span_argmax_reference

SMALL = dict(hidden=6, pos_dim=6, dropout_rate=0.0)


def flip_bit(raw: bytes, at: int, bit: int = 0) -> bytes:
    return raw[:at] + bytes([raw[at] ^ 1 << bit]) + raw[at + 1 :]


def first_parameter_npy(raw: bytes) -> int:
    """Offset of the .npy data of the archive's first parameter.  A
    parameter's array is larger than zipfile's read-ahead, so its header is
    parsed before the member's CRC is checked."""
    return raw.index(b"\x93NUMPY", raw.index(b"p:ctx_enc.fwd.W"))


def archive_claiming_a_huge_array(raw: bytes) -> bytes:
    """An archive whose one member has a .npy header for 10**12 float64 values but 64 bytes of data."""
    member = io.BytesIO()
    np.lib.format.write_array_header_1_0(member, {"descr": "<f8", "fortran_order": False, "shape": (10**12,)})
    member.write(bytes(64))
    archive = io.BytesIO()
    with zipfile.ZipFile(archive, "w") as zf:
        zf.writestr("p:w_end.npy", member.getvalue())
    return archive.getvalue()


UNREADABLE = {
    "empty": lambda raw: b"",
    "truncated": lambda raw: raw[: len(raw) // 2],
    "npy-array-file": lambda raw: npy_bytes(np.zeros(3)),
    # the header dict loses its closing brace, so it fails to tokenize
    "open-npy-header": lambda raw: flip_bit(raw, raw.index(b"}", first_parameter_npy(raw))),
    "huge-npy-header": archive_claiming_a_huge_array,
}


@pytest.fixture(scope="module")
def tiny_data():
    spec = GeneratorSpec(
        num_documents=3,
        num_questions=3,
        vocab_size=40,
        lines_per_document=(2, 3),
        words_per_line=(2, 3),
        seed=5,
    )
    return generate(spec)


class TestPositionalEncoding:
    def test_position_zero(self):
        pe = line_positional_encoding(0, 8)
        np.testing.assert_array_equal(pe, [0, 1, 0, 1, 0, 1, 0, 1])

    def test_pair_norms(self):
        pe = line_positional_encoding(17, 30)
        pairs = pe.reshape(15, 2)
        np.testing.assert_allclose(np.linalg.norm(pairs, axis=1), 1.0)
        assert np.linalg.norm(pe) == pytest.approx(np.sqrt(15))

    def test_direct_value(self):
        assert line_positional_encoding(3, 30)[0] == pytest.approx(np.sin(3), abs=1e-12)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            line_positional_encoding(1, 7)

    @pytest.mark.parametrize("dim", [0, 2, 6, 30])
    def test_array_equals_stacked_scalar_calls(self, dim):
        lines = np.array([0, 0, 1, 2, 2, 2, 3, 4, 4, 9, 40], dtype=np.intp)
        expected = np.stack([line_positional_encoding(int(line), dim) for line in lines])
        got = line_positional_encoding(lines, dim)
        assert got.shape == (len(lines), dim)
        assert got.tobytes() == expected.tobytes()

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="line_index must be non-negative"):
            line_positional_encoding(np.array([0, 1, -1, 2]), 6)


class TestConfig:
    def test_defaults(self):
        cfg = BidafConfig()
        assert (cfg.phoc_dim, cfg.pos_dim, cfg.hidden, cfg.dropout_rate) == (504, 30, 100, 0.2)
        assert cfg.max_span == 8
        assert BidafConfig(mode="word").max_span == 30

    def test_context_dim(self):
        assert BidafConfig(**SMALL).context_input_dim == 510
        assert BidafConfig(mode="word", **SMALL).context_input_dim == 504

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            BidafConfig(mode="page")

    def test_phoc_dim_fixed(self):
        # a model built for another width could only fail later, in forward
        with pytest.raises(ValueError, match="phoc_dim must be 504, got 100"):
            BidafConfig(phoc_dim=100)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("phoc_dim", 504.0, "phoc_dim must be 504, got 504.0"),
            ("hidden", 0, "hidden must be an integer >= 1, got 0"),
            ("hidden", 8.0, "hidden must be an integer >= 1, got 8.0"),
            ("hidden", True, "hidden must be an integer >= 1, got True"),
            ("hidden", "8", "hidden must be an integer >= 1, got '8'"),
            ("max_span", 0, "max_span must be an integer >= 1, got 0"),
            ("max_span", -2, "max_span must be an integer >= 1, got -2"),
            ("max_span", 2.5, "max_span must be an integer >= 1, got 2.5"),
            ("max_span", True, "max_span must be an integer >= 1, got True"),
            ("pos_dim", -2, "pos_dim must be an integer >= 0, got -2"),
            ("pos_dim", 3, "pos_dim must be even, got 3"),
            ("pos_dim", 6.0, "pos_dim must be an integer >= 0, got 6.0"),
            ("pos_dim", False, "pos_dim must be an integer >= 0, got False"),
            ("dropout_rate", "0.2", r"dropout_rate must be a real number in \[0, 1\), got '0.2'"),
            ("dropout_rate", True, r"dropout_rate must be a real number in \[0, 1\), got True"),
            ("dropout_rate", 1.0, r"dropout_rate must be a real number in \[0, 1\), got 1.0"),
            ("dropout_rate", -0.1, r"dropout_rate must be a real number in \[0, 1\), got -0.1"),
            ("dropout_rate", float("nan"), r"dropout_rate must be a real number in \[0, 1\), got nan"),
        ],
    )
    def test_rejects_bad_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            BidafConfig(**{field: value})

    def test_accepts_edge_values(self):
        cfg = BidafConfig(hidden=1, max_span=1, pos_dim=0, dropout_rate=0)
        assert (cfg.hidden, cfg.max_span, cfg.pos_dim, cfg.dropout_rate) == (1, 1, 0, 0)
        assert BidafConfig(max_span=None).max_span == 8


class TestForward:
    def test_line_mode_shapes(self, tiny_data):
        collection, questions = tiny_data
        model = BidafModel(BidafConfig(**SMALL), seed=0)
        for q in questions:
            doc = collection[q.gold_doc_id]
            start, end = bidaf.forward(doc, preprocess_query(q.text)[1], model)
            assert start.shape == (doc.num_lines,)
            assert end.shape == (doc.num_lines,)

    def test_word_mode_shapes(self, tiny_data):
        collection, questions = tiny_data
        model = BidafModel(BidafConfig(mode="word", **SMALL), seed=0)
        q = questions[0]
        doc = collection[q.gold_doc_id]
        start, end = bidaf.forward(doc, preprocess_query(q.text)[1], model)
        assert start.shape == (len(doc.words),)

    def test_one_line_document(self):
        doc = make_document("d", [["alpha", "beta"]])
        model = BidafModel(BidafConfig(**SMALL), seed=0)
        start, end = bidaf.forward(doc, [doc.words[0].phoc], model)
        assert start.shape == (1,)
        assert end.shape == (1,)

    def test_line_context_equals_per_word_stack(self, monkeypatch):
        # the positional encodings are computed for the whole line column at
        # once; the context must equal the per-word stack byte for byte
        doc = make_document("d", [["alpha", "be"], ["c"], ["dd", "e", "f"], ["g", "h"]])
        model = BidafModel(BidafConfig(**SMALL), seed=0)
        inputs = []
        blstm = bidaf.blstm_matrix
        monkeypatch.setattr(bidaf, "blstm_matrix", lambda x, *p: inputs.append(x.values.copy()) or blstm(x, *p))
        bidaf.forward(doc, [doc.words[0].phoc], model)
        pos_dim = model.config.pos_dim
        expected = np.stack(
            [np.concatenate([w.phoc, line_positional_encoding(w.line_index, pos_dim)]) for w in doc.words]
        )
        assert inputs[0].tobytes() == expected.tobytes()

    def test_singleton_line_aggregation_is_identity(self):
        # one word per line: summing by line membership changes nothing
        doc = make_document("d", [["one"], ["two"], ["three"]])
        M = np.random.default_rng(0).standard_normal((3, 12))
        np.testing.assert_array_equal(nn.line_sums(nn.Tensor(M), doc.word_lines).values, M)

    def test_line_aggregation_sums_by_membership(self):
        doc = make_document("d", [["a", "b", "c"], ["d", "e"]])
        M = np.random.default_rng(1).standard_normal((5, 4))
        expected = np.stack([M[0] + M[1] + M[2], M[3] + M[4]])
        np.testing.assert_allclose(nn.line_sums(nn.Tensor(M), doc.word_lines).values, expected)

    def test_deterministic_eval(self, tiny_data):
        collection, questions = tiny_data
        model = BidafModel(BidafConfig(**SMALL), seed=3)
        q = questions[0]
        doc = collection[q.gold_doc_id]
        phocs = preprocess_query(q.text)[1]
        a = bidaf.forward(doc, phocs, model)[0].values
        b = bidaf.forward(doc, phocs, model)[0].values
        np.testing.assert_array_equal(a, b)


class TestPredict:
    def test_direct_argmax(self):
        s, e, conf = constrained_span_argmax(np.array([5.0, 0.0]), np.array([0.0, 3.0]), 8)
        assert (s, e, conf) == (0, 1, 8.0)

    def test_constraint_binds(self):
        s, e, conf = constrained_span_argmax(np.array([0.0, 5.0]), np.array([3.0, 0.0]), 8)
        assert (s, e, conf) == (1, 1, 5.0)

    def test_matches_exhaustive_search(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            start = rng.standard_normal(n)
            end = rng.standard_normal(n)
            got = constrained_span_argmax(start, end, 3)
            best = max(
                ((s, e, start[s] + end[e]) for s in range(n) for e in range(s, min(s + 3, n))),
                key=lambda t: t[2],
            )
            assert got[2] == pytest.approx(best[2])

    @pytest.mark.parametrize("n, max_span", [(1, 8), (5, 8), (8, 8), (9, 8), (20, 3), (56, 30)])
    def test_matches_double_loop_oracle(self, n, max_span):
        rng = np.random.default_rng(100 * n + max_span)
        for _ in range(40):
            # integer logits from {0, 1, 2} force ties: the first span in
            # row-major (s, e) order must win them
            for start, end in (rng.standard_normal((2, n)), rng.integers(0, 3, (2, n)).astype(float)):
                assert constrained_span_argmax(start, end, max_span) == span_argmax_reference(start, end, max_span)
        assert constrained_span_argmax(np.zeros(n), np.zeros(n), max_span) == (0, 0, 0.0)

    def test_no_candidate_above_minus_inf(self):
        minus_inf = np.full(4, -np.inf)
        assert constrained_span_argmax(minus_inf, np.zeros(4), 2) == (0, 0, -np.inf)
        nan_start, end = np.array([np.nan, 1.0]), np.array([0.0, 2.0])
        assert constrained_span_argmax(nan_start, end, 2) == span_argmax_reference(nan_start, end, 2) == (1, 1, 3.0)
        assert constrained_span_argmax(np.zeros(0), np.zeros(0), 8) == span_argmax_reference([], [], 8)

    def test_shift_invariance(self, tiny_data):
        collection, questions = tiny_data
        model = BidafModel(BidafConfig(**SMALL), seed=0)
        q = questions[0]
        doc = collection[q.gold_doc_id]
        phocs = preprocess_query(q.text)[1]
        start, end = bidaf.forward(doc, phocs, model)
        base = constrained_span_argmax(start.values, end.values, model.config.max_span)
        shifted = constrained_span_argmax(start.values + 7.0, end.values - 2.0, model.config.max_span)
        assert (base[0], base[1]) == (shifted[0], shifted[1])
        assert shifted[2] == pytest.approx(base[2] + 5.0)

    def test_word_mode_reports_covering_lines(self, tiny_data):
        collection, questions = tiny_data
        model = BidafModel(BidafConfig(mode="word", **SMALL), seed=0)
        q = questions[0]
        doc = collection[q.gold_doc_id]
        pred = bidaf.predict(doc, preprocess_query(q.text)[1], model)
        assert pred.start_word is not None
        assert pred.start_line == doc.line_of_word(pred.start_word)
        assert pred.end_line == doc.line_of_word(pred.end_word)


class TestTrain:
    def test_zero_examples_is_noop(self):
        model = BidafModel(BidafConfig(**SMALL), seed=0)
        before = {k: v.values.copy() for k, v in model.parameters().items()}
        trace = bidaf.train(model, [], epochs=3, seed=0)
        assert trace == [0.0, 0.0, 0.0]
        for k, v in model.parameters().items():
            np.testing.assert_array_equal(v.values, before[k])

    def test_single_example_loss_descends(self, tiny_data):
        collection, questions = tiny_data
        model = BidafModel(BidafConfig(**SMALL), seed=0)
        q = questions[0]
        ex = [(collection[q.gold_doc_id], q)]
        trace = bidaf.train(model, ex, epochs=50, seed=1)
        assert trace[-1] < trace[0]

    def test_deterministic_given_seed(self, tiny_data):
        collection, questions = tiny_data
        ex = [(collection[q.gold_doc_id], q) for q in questions]
        runs = []
        for _ in range(2):
            model = BidafModel(BidafConfig(hidden=4, pos_dim=6, dropout_rate=0.2), seed=2)
            trace = bidaf.train(model, ex, epochs=3, seed=9)
            runs.append((trace, {k: v.values.copy() for k, v in model.parameters().items()}))
        assert runs[0][0] == runs[1][0]
        for k in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][k], runs[1][1][k])

    def test_adadelta_matches_reference_over_25_steps(self, tiny_data, monkeypatch):
        """25 training steps of an h=100 line model: the library ADADELTA and
        the unblocked reference give the same losses, parameters and averages
        byte for byte."""
        collection, questions = tiny_data
        ex = [(collection[q.gold_doc_id], q) for q in questions]
        runs = []
        for step_fn in (nn.adadelta_step, adadelta_reference):
            monkeypatch.setattr(bidaf, "adadelta_step", step_fn)
            model = BidafModel(BidafConfig(hidden=100, dropout_rate=0.2, mode="line"), seed=4)
            losses = [bidaf.train(model, [ex[i % len(ex)]], epochs=1, seed=i)[0] for i in range(25)]
            arrays = {
                name: (p.values.tobytes(), model.optimizer.eg2[name].tobytes(), model.optimizer.edx2[name].tobytes())
                for name, p in model.parameters().items()
            }
            runs.append(([x.hex() for x in losses], arrays))
        assert runs[0] == runs[1]

    def test_negative_epochs_rejected(self, tiny_data):
        collection, questions = tiny_data
        model = BidafModel(BidafConfig(**SMALL), seed=0)
        with pytest.raises(ValueError, match="epochs must be >= 0, got -1"):
            bidaf.train(model, [(collection[q.gold_doc_id], q) for q in questions], epochs=-1, seed=0)

    def test_gold_span_out_of_range(self, tiny_data):
        collection, questions = tiny_data
        q = questions[0]
        doc = make_document("tiny", [["only"]])
        model = BidafModel(BidafConfig(**SMALL), seed=0)
        with pytest.raises(ValueError, match=q.question_id):
            bidaf.train(model, [(doc, q)], epochs=1, seed=0)


class TestFullGraphGradient:
    @pytest.mark.parametrize("mode", ["line", "word"])
    def test_full_bidaf_gradient(self, mode, tiny_data):
        collection, questions = tiny_data
        q = questions[0]
        doc = collection[q.gold_doc_id]
        phocs = preprocess_query(q.text)[1]
        model = BidafModel(BidafConfig(hidden=3, pos_dim=4, dropout_rate=0.0, mode=mode), seed=4)
        gold = q.gold_line_span if mode == "line" else q.gold_word_span

        def loss_fn():
            return bidaf.example_loss(doc, phocs, gold, model)

        err = finite_difference_check(
            loss_fn, model.parameters(), max_coords_per_tensor=3, rng=np.random.default_rng(0)
        )
        assert err <= 1e-4


class TestTape:
    @pytest.mark.parametrize("mode, nodes", [("line", 53), ("word", 52)])
    def test_loss_tape_size_independent_of_lengths(self, mode, nodes, rng):
        # 2 inputs, 5 dropouts, 5 BLSTMs of 7 (4 parameters, 2 directions and
        # their concat), att_ws and the attention, the concat of H and the
        # attention, 6 for the two heads (weight, bias and linear each) and 1
        # for the span loss; line mode adds the per-line sums
        model = BidafModel(BidafConfig(hidden=3, pos_dim=4, dropout_rate=0.2, mode=mode), seed=1)
        sizes = set()
        for num_lines, words_per_line, question_length in ((1, 1, 1), (3, 4, 2), (9, 7, 6)):
            doc = make_document("d", [[random_word(rng) for _ in range(words_per_line)] for _ in range(num_lines)])
            question = [phoc_encode(random_word(rng)) for _ in range(question_length)]
            sizes.add(tape_nodes(bidaf.example_loss(doc, question, (0, 0), model, training=True, rng=rng)))
        assert sizes == {nodes}


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tiny_data, tmp_path):
        collection, questions = tiny_data
        ex = [(collection[q.gold_doc_id], q) for q in questions]
        model = BidafModel(BidafConfig(hidden=4, pos_dim=6, dropout_rate=0.2), seed=8)
        bidaf.train(model, ex, epochs=2, seed=8)
        path = tmp_path / "model.ckpt"
        bidaf.save_checkpoint(model, path)
        loaded = bidaf.load_checkpoint(path)
        assert loaded.config == model.config
        for q in questions:
            doc = collection[q.gold_doc_id]
            phocs = preprocess_query(q.text)[1]
            s0, e0 = bidaf.forward(doc, phocs, model)
            s1, e1 = bidaf.forward(doc, phocs, loaded)
            np.testing.assert_array_equal(s0.values, s1.values)
            np.testing.assert_array_equal(e0.values, e1.values)

    def test_optimizer_state_preserved(self, tiny_data, tmp_path):
        collection, questions = tiny_data
        ex = [(collection[q.gold_doc_id], q) for q in questions]
        model = BidafModel(BidafConfig(hidden=4, pos_dim=6, dropout_rate=0.0), seed=8)
        bidaf.train(model, ex, epochs=1, seed=8)
        path = tmp_path / "model.ckpt"
        bidaf.save_checkpoint(model, path)
        loaded = bidaf.load_checkpoint(path)
        for k in model.optimizer.eg2:
            np.testing.assert_array_equal(model.optimizer.eg2[k], loaded.optimizer.eg2[k])

    def test_load_draws_no_random_numbers(self, tiny_data, tmp_path, monkeypatch):
        path = self._saved(tiny_data, tmp_path)
        expected = bidaf.load_checkpoint(path).parameters()

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = bidaf.load_checkpoint(path).parameters()
        assert list(loaded) == list(expected)
        for name, p in expected.items():
            assert loaded[name].values.tobytes() == p.values.tobytes(), name

    @pytest.mark.parametrize("damage", UNREADABLE.values(), ids=UNREADABLE.keys())
    def test_rejects_unreadable_file_naming_it(self, tiny_data, tmp_path, damage):
        path = self._saved(tiny_data, tmp_path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a readable checkpoint archive"):
            bidaf.load_checkpoint(path)

    def test_damaged_archive_loads_a_working_model_or_raises_value_error(self, tiny_data, tmp_path):
        """Every bit of the first parameter's .npy header (its length field
        too) and of the first central directory entry flipped in turn, seeded
        random bit flips anywhere and seeded truncations: each file loads a
        model that answers with a finite confidence, or raises ValueError."""
        raw = self._saved(tiny_data, tmp_path).read_bytes()
        header = first_parameter_npy(raw)
        directory = zipfile.ZipFile(io.BytesIO(raw)).start_dir
        rng = np.random.default_rng(0)
        damaged = [
            flip_bit(raw, at, bit)
            for at in [*range(header, header + 74), *range(directory, directory + 46)]
            for bit in range(8)
        ]
        flips = zip(rng.integers(len(raw), size=200), rng.integers(8, size=200))
        damaged += [flip_bit(raw, int(at), int(bit)) for at, bit in flips]
        damaged += [raw[:n] for n in rng.integers(len(raw), size=100)]
        collection, questions = tiny_data
        doc = collection[questions[0].gold_doc_id]
        query = preprocess_query(questions[0].text)[1]
        loaded = 0
        for data in damaged:
            try:
                model = bidaf.load_checkpoint(io.BytesIO(data))  # np.load reads file objects as it reads paths
            except ValueError:
                continue
            loaded += 1
            assert np.isfinite(bidaf.predict(doc, query, model).confidence)
        assert loaded < len(damaged)

    def test_rejects_meta_nested_too_deeply(self, tmp_path):
        path = tmp_path / "deep.ckpt"
        with open(path, "wb") as f:
            np.savez(f, __meta__=np.frombuffer(b"[" * 100_000 + b"]" * 100_000, dtype=np.uint8))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: checkpoint '__meta__': JSON nested too deeply"):
            bidaf.load_checkpoint(path)

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        meta = np.frombuffer(b'{"format": "other"}', dtype=np.uint8)
        with open(path, "wb") as f:
            np.savez(f, __meta__=meta)
        with pytest.raises(ValueError, match="format"):
            bidaf.load_checkpoint(path)

    def test_rejects_meta_not_object(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        with open(path, "wb") as f:
            np.savez(f, __meta__=np.frombuffer(b"[1]", dtype=np.uint8))
        with pytest.raises(ValueError, match="checkpoint '__meta__' is not a JSON object"):
            bidaf.load_checkpoint(path)

    @pytest.mark.parametrize(
        "meta, error, message",
        [
            (b"{nope", json.JSONDecodeError, "Expecting property name"),
            (b'{"format": "\xff"}', ValueError, "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["not-json", "not-utf8"],
    )
    def test_unreadable_meta_names_the_file(self, tmp_path, meta, error, message):
        path = tmp_path / "bad.ckpt"
        with open(path, "wb") as f:
            np.savez(f, __meta__=np.frombuffer(meta, dtype=np.uint8))
        with pytest.raises(error, match=f"^{re.escape(str(path))}: checkpoint '__meta__': {message}"):
            bidaf.load_checkpoint(path)

    def _rewrite(self, path, edit):
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        edit(arrays)
        with open(path, "wb") as f:
            np.savez(f, **arrays)

    def _saved(self, tiny_data, tmp_path):
        collection, questions = tiny_data
        model = BidafModel(BidafConfig(hidden=4, pos_dim=6, dropout_rate=0.0), seed=8)
        bidaf.train(model, [(collection[questions[0].gold_doc_id], questions[0])], epochs=1, seed=8)
        path = tmp_path / "model.ckpt"
        bidaf.save_checkpoint(model, path)
        return path

    def test_fortran_ordered_archive_trains_like_the_original(self, tiny_data, tmp_path):
        path = self._saved(tiny_data, tmp_path)
        original = bidaf.load_checkpoint(path)
        self._rewrite(path, lambda a: a.update({k: np.asfortranarray(v) for k, v in a.items() if v.ndim == 2}))
        with np.load(path) as data:
            assert not data["p:q_enc.fwd.W"].flags.c_contiguous
        loaded = bidaf.load_checkpoint(path)
        collection, questions = tiny_data
        ex = [(collection[q.gold_doc_id], q) for q in questions]
        for model in (original, loaded):
            bidaf.train(model, ex, epochs=1, seed=3)
        for name, p in original.parameters().items():
            assert loaded.parameters()[name].values.tobytes() == p.values.tobytes(), name

    def test_rejects_missing_parameter(self, tiny_data, tmp_path):
        path = self._saved(tiny_data, tmp_path)
        self._rewrite(path, lambda a: a.pop("p:w_start"))
        with pytest.raises(ValueError, match="p:w_start"):
            bidaf.load_checkpoint(path)

    @pytest.mark.parametrize("key", ["eg2:nowhere", "edx2:nowhere", "p:nowhere", "extra"])
    def test_rejects_key_naming_no_parameter(self, tiny_data, tmp_path, key):
        path = self._saved(tiny_data, tmp_path)
        self._rewrite(path, lambda a: a.update({key: np.zeros(3)}))
        with pytest.raises(ValueError, match=key):
            bidaf.load_checkpoint(path)

    @pytest.mark.parametrize("key", ["p:b_end", "eg2:w_end"])
    def test_rejects_wrong_shape(self, tiny_data, tmp_path, key):
        path = self._saved(tiny_data, tmp_path)
        self._rewrite(path, lambda a: a.update({key: np.zeros(3)}))
        with pytest.raises(ValueError, match=key):
            bidaf.load_checkpoint(path)

    @pytest.mark.parametrize("dtype", ["<U3", [("a", "<f8"), ("b", "<i4")]], ids=["string", "record"])
    def test_rejects_array_not_floating_point(self, tiny_data, tmp_path, dtype):
        path = self._saved(tiny_data, tmp_path)
        self._rewrite(path, lambda a: a.update({"p:b_end": np.zeros((), dtype=dtype)}))
        with pytest.raises(ValueError, match="'p:b_end' holds .* not floating point"):
            bidaf.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("key", ["p:w_end", "eg2:b_start", "edx2:ctx_enc.fwd.W"])
    def test_rejects_non_finite_array(self, tiny_data, tmp_path, key, value):
        path = self._saved(tiny_data, tmp_path)

        def spoil(arrays):
            arrays[key] = arrays[key].copy()
            arrays[key].flat[-1] = value

        self._rewrite(path, spoil)
        with pytest.raises(ValueError, match=f"checkpoint key '{re.escape(key)}' holds a non-finite value"):
            bidaf.load_checkpoint(path)

    def test_rejects_missing_meta(self, tiny_data, tmp_path):
        path = self._saved(tiny_data, tmp_path)
        self._rewrite(path, lambda a: a.pop("__meta__"))
        with pytest.raises(ValueError, match="__meta__"):
            bidaf.load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, name",
        [
            (lambda meta: meta["config"].update(depth=3), "'depth'"),
            (lambda meta: meta.pop("config"), "'config'"),
            (lambda meta: meta["config"].update(phoc_dim=100), "phoc_dim"),
            (lambda meta: meta["config"].update(hidden="4"), "hidden must be an integer"),
            (lambda meta: meta["config"].update(max_span=0), "max_span must be an integer"),
            (lambda meta: meta["config"].update(hidden=10**12), r"hidden=1000000000000"),
            (lambda meta: meta["config"].update(mode="word"), r"'p:ctx_enc.fwd.W'.*mode='word'"),
            (lambda meta: meta["optimizer"].update(lr="0.5"), "optimizer field 'lr' must be a finite number"),
            (lambda meta: meta["optimizer"].update(rho=float("inf")), "optimizer field 'rho' must be a finite number"),
            (lambda meta: meta["optimizer"].update(eps=None), "optimizer field 'eps' must be a finite number"),
            (lambda meta: meta["optimizer"].update(lr=-0.5), r"optimizer field 'lr' must be > 0, not -0.5"),
            (lambda meta: meta["optimizer"].update(rho=1), r"optimizer field 'rho' must be in \(0, 1\), not 1"),
            (lambda meta: meta["optimizer"].update(eps=0), "optimizer field 'eps' must be > 0, not 0"),
            (lambda meta: meta.update(optimizer=[0.5]), "field 'optimizer' must be an object"),
            (lambda meta: meta["optimizer"].update(lr=10**400), "optimizer field 'lr' must be a finite number"),
        ],
        ids=[
            "unknown-field", "no-config", "phoc-dim", "hidden-string", "max-span-zero", "hidden-huge", "mode",
            "lr-string", "rho-inf", "eps-null", "lr-negative", "rho-one", "eps-zero", "optimizer-list", "lr-huge-int",
        ],
    )
    def test_rejects_bad_config(self, tiny_data, tmp_path, edit, name):
        path = self._saved(tiny_data, tmp_path)

        def edit_meta(arrays):
            meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
            edit(meta)
            arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)

        self._rewrite(path, edit_meta)
        with pytest.raises(ValueError, match=name):
            bidaf.load_checkpoint(path)


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.integers(),
    st.floats(),
    st.floats(0.0, 1.0),
    st.sampled_from(["line", "word", "4", ""]),
    st.lists(st.integers(0, 8), max_size=3),
    st.dictionaries(st.sampled_from(["hidden", "lr"]), st.integers(0, 8), max_size=2),
)
META_FIELDS = [("config", f) for f in ("phoc_dim", "pos_dim", "hidden", "dropout_rate", "mode", "max_span")] + [
    ("optimizer", f) for f in ("lr", "rho", "eps")
]


@pytest.fixture(scope="module")
def saved_archive(tiny_data):
    """The arrays and meta of a trained line-mode checkpoint."""
    collection, questions = tiny_data
    model = BidafModel(BidafConfig(hidden=4, pos_dim=6, dropout_rate=0.1), seed=8)
    bidaf.train(model, [(collection[q.gold_doc_id], q) for q in questions], epochs=1, seed=8)
    arrays = {f"p:{name}": p.values for name, p in model.parameters().items()}
    arrays.update({f"eg2:{k}": v for k, v in model.optimizer.eg2.items()})
    arrays.update({f"edx2:{k}": v for k, v in model.optimizer.edx2.items()})
    meta = {"format": bidaf.CHECKPOINT_FORMAT, "config": vars(model.config).copy(), "optimizer": {"lr": 1.0, "rho": 0.95, "eps": 1e-6}}
    return arrays, meta


class TestLoadMutatedCheckpoint:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_loads_working_model_or_names_the_field(self, saved_archive, tiny_data, tmp_path_factory, data):
        """One config or optimizer field of '__meta__' set to any JSON value:
        the archive loads a model that answers with a finite confidence, or
        raises a ValueError naming the field."""
        arrays, meta = saved_archive
        part, name = data.draw(st.sampled_from(META_FIELDS), label="field")
        value = data.draw(JSON_VALUES, label="value")
        meta = json.loads(json.dumps(meta))
        meta[part][name] = value
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        with open(path, "wb") as f:
            np.savez(f, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8), **arrays)
        try:
            model = bidaf.load_checkpoint(path)
        except ValueError as e:
            event("rejected")
            assert name in str(e), str(e)
        else:
            event("loaded")
            collection, questions = tiny_data
            doc = collection[questions[0].gold_doc_id]
            pred = bidaf.predict(doc, preprocess_query(questions[0].text)[1], model)
            assert np.isfinite(pred.confidence)
            assert 0 <= pred.start_line <= pred.end_line < doc.num_lines
