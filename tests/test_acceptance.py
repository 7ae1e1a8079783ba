"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The training-based
criteria are the slow ones (several minutes each); everything else is
seconds.
"""

import time

import numpy as np
import pytest

from phocqa import bidaf
from phocqa import neural as nn
from phocqa.cli import main
from phocqa.corpus import AnswerPrediction, corrupt_collection, preprocess_query
from phocqa.evaluation import answer_collection, build_boxes, dis, evaluate, AnswerBoxes
from phocqa.phoc import phoc_encode
from phocqa.retriever import doc_score, rank_collection
from phocqa.snippet_qa import answer_attention
from phocqa.synth import GeneratorSpec, generate

from conftest import draw_blstm, make_collection, make_document, random_word
from oracles import dis_reference, doc_score_reference, finite_difference_check, phoc_reference


def ok(name):
    print(f"\nACCEPTANCE PASS: {name}")


def test_phoc_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.time()
    for _ in range(1000):
        word = random_word(rng, 1, 12)
        np.testing.assert_array_equal(phoc_encode(word), phoc_reference(word))
    elapsed = time.time() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    ok(f"PHOC encoder matches brute-force occupancy oracle on 1000 words ({elapsed:.1f}s)")


def test_doc_score_oracle_equivalence():
    rng = np.random.default_rng(7)
    for _ in range(200):
        doc_words = [random_word(rng, 1, 8) for _ in range(int(rng.integers(3, 15)))]
        query_words = [random_word(rng, 1, 8) for _ in range(int(rng.integers(1, 4)))]
        doc = make_document("d", [doc_words])
        query = [phoc_encode(w) for w in query_words]
        expected = doc_score_reference([w.phoc for w in doc.words], query)
        assert doc_score(doc, query) == pytest.approx(expected, abs=1e-12)

    # ranking equals a full sort of brute-force scores, tie rule included
    docs = {f"doc{i:02d}": [[random_word(rng, 1, 5) for _ in range(6)]] for i in range(40)}
    docs["tie_b"] = docs["tie_a"] = [["mirror", "words"]]
    c = make_collection(docs)
    query = [phoc_encode(random_word(rng, 1, 5)), phoc_encode("mirror")]
    results = rank_collection(c, query, k=len(docs))
    oracle = sorted(
        ((did, doc_score(c[did], query)) for did in docs), key=lambda t: (-t[1], t[0])
    )
    assert [(r.doc_id, r.score) for r in results] == oracle
    tie_ranks = {r.doc_id: r.rank for r in results}
    assert tie_ranks["tie_a"] == tie_ranks["tie_b"] - 1
    ok("max/mean scoring matches nested-loop oracle (1e-12) and ranking matches full sort")


def test_retrieval_properties():
    rng = np.random.default_rng(99)
    for _ in range(500):
        doc_words = [random_word(rng, 1, 6) for _ in range(int(rng.integers(1, 12)))]
        query = [phoc_encode(random_word(rng, 1, 6)) for _ in range(int(rng.integers(1, 4)))]
        score = doc_score(make_document("d", [doc_words]), query)
        assert 0.0 <= score <= 1.0 + 1e-12

        perm = list(doc_words)
        rng.shuffle(perm)
        assert doc_score(make_document("d", [perm]), query) == score

        grown = doc_words + [random_word(rng, 1, 6)]
        assert doc_score(make_document("d", [grown]), query) >= score - 1e-12
    ok("permutation invariance, append monotonicity and [0,1] range over 500 cases each")


def test_synthetic_retrieval_soundness():
    spec = GeneratorSpec(
        num_documents=100,
        lines_per_document=(5, 10),
        words_per_line=(5, 10),
        vocab_size=400,
        num_questions=50,
        seed=0,
    )
    collection, questions = generate(spec)
    for q in questions:
        top = rank_collection(collection, [phoc_encode(t) for t in q.tokens], k=1)[0]
        assert top.doc_id == q.gold_doc_id
    rates = [0.0, 0.05, 0.1, 0.2, 0.5]
    seeds = range(10)
    top5 = np.zeros((len(rates), len(seeds)))
    for j, seed in enumerate(seeds):
        base, qs = generate(
            GeneratorSpec(
                num_documents=100,
                lines_per_document=(5, 10),
                words_per_line=(5, 10),
                vocab_size=400,
                num_questions=50,
                seed=1000 + seed,
            )
        )
        for i, rate in enumerate(rates):
            noisy = corrupt_collection(base, rate, np.random.default_rng(seed * 17 + i))
            hits = 0
            for q in qs:
                results = rank_collection(noisy, [phoc_encode(t) for t in q.tokens], k=5)
                hits += any(r.doc_id == q.gold_doc_id for r in results)
            top5[i, j] = hits / len(qs)
    means = top5.mean(axis=1)
    for i in range(len(rates) - 1):
        diffs = top5[i] - top5[i + 1]
        se = diffs.std(ddof=1) / np.sqrt(len(diffs)) if diffs.std(ddof=1) > 0 else 0.0
        assert diffs.mean() >= -se, (
            f"top-5 not monotone: rate {rates[i]} -> {rates[i+1]}: "
            f"{means[i]:.3f} vs {means[i+1]:.3f}"
        )
    ok(
        "flip 0 gives Top-1 100%; Top-5 degrades monotonically over rates "
        + ", ".join(f"{r}:{m:.3f}" for r, m in zip(rates, means))
    )


def test_gradient_verification():
    start = time.time()
    for seed in range(10):
        rng = np.random.default_rng(seed)

        # dense + softmax/xent
        W = nn.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = nn.Tensor(rng.standard_normal(3), requires_grad=True)
        x = rng.standard_normal(4)
        assert (
            finite_difference_check(
                lambda: nn.cross_entropy(nn.softmax(nn.add(nn.matmul(W, nn.Tensor(x)), b)), 1),
                {"W": W, "b": b},
            )
            <= 1e-4
        )

        # blstm
        fwd, bwd = draw_blstm(3, 3, rng)
        xs = rng.standard_normal((4, 3))
        w = nn.Tensor(rng.standard_normal(6), requires_grad=True)

        def blstm_loss():
            out = nn.blstm_matrix(nn.Tensor(xs), fwd, bwd)
            return nn.cross_entropy(nn.softmax(nn.matmul(out, w)), 2)

        params = {"fW": fwd[0], "fb": fwd[1], "bW": bwd[0], "bb": bwd[1], "w": w}
        assert finite_difference_check(blstm_loss, params) <= 1e-4

        # attention
        Hv = rng.standard_normal((4, 4))
        Uv = rng.standard_normal((2, 4))
        ws = nn.Tensor(rng.standard_normal(12), requires_grad=True)
        wo = nn.Tensor(rng.standard_normal(4), requires_grad=True)

        def att_loss():
            att = nn.c2q_attention(nn.Tensor(Hv), nn.Tensor(Uv), ws)
            return nn.cross_entropy(nn.softmax(nn.matmul(att, wo)), 0)

        assert finite_difference_check(att_loss, {"ws": ws, "wo": wo}) <= 1e-4

    # full BiDAF loss graph, both modes
    collection, questions = generate(
        GeneratorSpec(num_documents=2, num_questions=2, vocab_size=40,
                      lines_per_document=(2, 3), words_per_line=(2, 3), seed=6)
    )
    q = questions[0]
    doc = collection[q.gold_doc_id]
    phocs = preprocess_query(q.text)[1]
    for seed in range(10):
        for mode in ("line", "word"):
            model = bidaf.BidafModel(
                bidaf.BidafConfig(hidden=3, pos_dim=4, dropout_rate=0.0, mode=mode), seed=seed
            )
            gold = q.gold_line_span if mode == "line" else q.gold_word_span
            err = finite_difference_check(
                lambda: bidaf.example_loss(doc, phocs, gold, model),
                model.parameters(),
                max_coords_per_tensor=2,
                rng=np.random.default_rng(seed),
            )
            assert err <= 1e-4, f"mode {mode} seed {seed}: rel error {err}"
    elapsed = time.time() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    ok(f"all layers and the full loss graph pass finite-difference checks, 10 seeds ({elapsed:.0f}s)")


def _overfit(mode: str) -> None:
    spec = GeneratorSpec(
        num_documents=12,
        num_questions=32,
        vocab_size=200,
        lines_per_document=(3, 4),
        words_per_line=(3, 4),
        seed=7,
    )
    collection, questions = generate(spec)
    examples = [(collection[q.gold_doc_id], q) for q in questions]
    start = time.time()
    accs = []
    for seed in range(5):
        model = bidaf.BidafModel(
            bidaf.BidafConfig(hidden=50, dropout_rate=0.2, mode=mode), seed=seed
        )
        epochs = 0
        acc = 0.0
        while epochs < 200:
            bidaf.train(model, examples, epochs=10, seed=seed * 1000 + epochs)
            epochs += 10
            acc = bidaf.span_accuracy(model, examples)
            if acc >= 0.97:
                break
        accs.append(acc)
    elapsed = time.time() - start
    mean_acc = float(np.mean(accs))
    assert mean_acc >= 0.95, f"mean accuracy {mean_acc:.3f} over 5 seeds"
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    ok(f"{mode}-level overfit: mean exact-span accuracy {mean_acc:.3f} over 5 seeds ({elapsed:.0f}s)")


@pytest.mark.slow
def test_bidaf_line_overfit():
    _overfit("line")


@pytest.mark.slow
def test_bidaf_word_overfit():
    _overfit("word")


def test_dis_oracle_equivalence():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        universe = np.arange(30)
        sb = set(rng.choice(universe, size=int(rng.integers(1, 6)), replace=False))
        lb = sb | set(rng.choice(universe, size=int(rng.integers(0, 10)), replace=False))
        ab = set(rng.choice(universe, size=int(rng.integers(0, 12)), replace=False))
        boxes = AnswerBoxes(frozenset(sb), frozenset(lb), frozenset(ab))
        score = dis(boxes)
        assert score == dis_reference(sb, lb, ab)
        assert (score == 1.0) == (sb <= ab <= lb)

    # constructed chain cases including both edge clamps
    doc = make_document("d", [[f"w{l}{i}" for i in range(3)] for l in range(5)])
    top = build_boxes(doc, (0, 2), (0, 0))  # gold is line 0, no line above
    assert dis(top) == 1.0
    bottom = build_boxes(doc, (12, 14), (4, 4))  # gold is last line, no line below
    assert dis(bottom) == 1.0
    inner = build_boxes(doc, (6, 8), (1, 3))  # AB = LB exactly
    assert dis(inner) == 1.0
    overshoot = build_boxes(doc, (6, 8), (0, 4))  # AB exceeds LB
    assert dis(overshoot) < 1.0
    ok("DIS matches set-arithmetic oracle on 1000 boxes; DIS=1 iff SB<=AB<=LB incl. edge clamps")


def test_end_to_end_determinism_and_selection(tmp_path):
    out = tmp_path / "corpus"
    assert main(
        [
            "generate", "--output", str(out), "--num-docs", "20", "--vocab-size", "200",
            "--num-questions", "8", "--min-lines", "3", "--max-lines", "5",
            "--min-words", "3", "--max-words", "6", "--seed", "21",
        ]
    ) == 0
    reports = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        assert main(
            [
                "eval",
                "--collection", str(out / "collection.json"),
                "--questions", str(out / "questions.json"),
                "--backend", "attention",
                "--flip-rate", "0.05",
                "--seed", "5",
                "--report", str(path),
            ]
        ) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]

    # confidence-argmax selection equals brute-force enumeration over k candidates
    collection, _ = generate(
        GeneratorSpec(num_documents=15, num_questions=2, vocab_size=80, seed=23)
    )
    rng = np.random.default_rng(31)
    for _ in range(100):
        confidences = {did: float(rng.random()) for did in collection.documents}

        def stub(doc, query, conf=confidences):
            return AnswerPrediction(doc.doc_id, 0, 0, conf[doc.doc_id])

        query = [phoc_encode(random_word(rng, 2, 6))]
        pred, retrieved = answer_collection(collection, query, stub, k=5)
        assert pred.confidence == max(confidences[r.doc_id] for r in retrieved)
        winners = [r.doc_id for r in retrieved if confidences[r.doc_id] == pred.confidence]
        assert pred.doc_id == winners[0]
    ok("eval is byte-identical across reruns; candidate selection equals brute-force argmax")


def test_checkpoint_round_trip(tmp_path):
    collection, questions = generate(
        GeneratorSpec(num_documents=10, num_questions=28, vocab_size=200,
                      lines_per_document=(2, 4), words_per_line=(3, 5), seed=17)
    )
    train_qs, held_out = questions[:8], questions[8:28]
    assert len(held_out) == 20
    model = bidaf.BidafModel(bidaf.BidafConfig(hidden=8, pos_dim=6), seed=1)
    bidaf.train(model, [(collection[q.gold_doc_id], q) for q in train_qs], epochs=2, seed=1)
    path = tmp_path / "m.ckpt"
    bidaf.save_checkpoint(model, path)
    loaded = bidaf.load_checkpoint(path)
    for q in held_out:
        doc = collection[q.gold_doc_id]
        phocs = preprocess_query(q.text)[1]
        s0, e0 = bidaf.forward(doc, phocs, model)
        s1, e1 = bidaf.forward(doc, phocs, loaded)
        np.testing.assert_array_equal(s0.values, s1.values)
        np.testing.assert_array_equal(e0.values, e1.values)
        assert bidaf.predict(doc, phocs, model) == bidaf.predict(doc, phocs, loaded)
    ok("checkpoint round-trip reproduces bit-exact logits on 20 held-out questions")
