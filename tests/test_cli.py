import json

import numpy as np
import pytest

from phocqa.cli import main
from phocqa.corpus import load_collection
from phocqa.retriever import rank_collection
from phocqa.corpus import preprocess_query

from conftest import npy_bytes


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(
        [
            "generate",
            "--output",
            str(out),
            "--num-docs",
            "10",
            "--min-lines",
            "3",
            "--max-lines",
            "5",
            "--min-words",
            "3",
            "--max-words",
            "5",
            "--vocab-size",
            "120",
            "--num-questions",
            "6",
            "--seed",
            "11",
        ]
    )
    assert rc == 0
    return out


class TestValidate:
    def test_valid_collection(self, corpus_dir, capsys):
        assert main(["validate", "--collection", str(corpus_dir / "collection.json")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_duplicate_doc_id(self, tmp_path, capsys):
        doc = {
            "doc_id": "a",
            "lines": [{"line_index": 0, "start_word": 0, "end_word": 0}],
            "words": [{"word_index": 0, "line_index": 0, "text": "x"}],
        }
        p = tmp_path / "dup.json"
        p.write_text(json.dumps({"documents": [doc, doc]}))
        assert main(["validate", "--collection", str(p)]) == 1
        assert "'a'" in capsys.readouterr().err

    def test_malformed_field_named_without_traceback(self, tmp_path, capsys):
        doc = {"doc_id": "a", "lines": [{"line_index": 0, "start_word": 0, "end_word": 0}], "words": 5}
        p = tmp_path / "words.json"
        p.write_text(json.dumps({"documents": [doc]}))
        assert main(["validate", "--collection", str(p)]) == 1
        err = capsys.readouterr().err
        assert err == "invalid collection: document 'a': field 'words' must be a list, not int\n"

    def test_nesting_too_deep_without_traceback(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text('{"documents": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["validate", "--collection", str(p)]) == 1
        assert capsys.readouterr().err == f"invalid collection: {p}: JSON nested too deeply to parse\n"

    def test_empty_file(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        p.write_text("")
        assert main(["validate", "--collection", str(p)]) == 1
        assert capsys.readouterr().err


class TestGenerate:
    def test_reproducible(self, tmp_path):
        args = lambda d: [
            "generate", "--output", str(d), "--num-docs", "3", "--vocab-size", "80",
            "--num-questions", "2", "--seed", "5",
        ]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args(d1)) == 0
        assert main(args(d2)) == 0
        assert (d1 / "collection.json").read_bytes() == (d2 / "collection.json").read_bytes()
        assert (d1 / "questions.json").read_bytes() == (d2 / "questions.json").read_bytes()

    def test_output_validates(self, corpus_dir):
        assert main(["validate", "--collection", str(corpus_dir / "collection.json")]) == 0

    def test_rejects_negative_num_questions_without_traceback(self, tmp_path, capsys):
        assert main(["generate", "--output", str(tmp_path / "out"), "--num-questions", "-1"]) == 1
        out = capsys.readouterr()
        assert out.err.splitlines() == ["error: num_questions must be >= 0, got -1"]
        assert out.out == ""
        assert not (tmp_path / "out").exists()


class TestRetrieve:
    def test_matches_library(self, corpus_dir, capsys):
        collection = load_collection(corpus_dir / "collection.json")
        questions = json.loads((corpus_dir / "questions.json").read_text())["questions"]
        text = questions[0]["text"]
        assert main(["retrieve", text, "--collection", str(corpus_dir / "collection.json"), "--k", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        expected = rank_collection(collection, preprocess_query(text)[1], 3)
        assert out == [f"{r.rank} {r.doc_id} {r.score:.6f}" for r in expected]

    def test_nesting_too_deep_without_traceback(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text('{"documents": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["retrieve", "dear sir", "--collection", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {p}: JSON nested too deeply to parse\n"

    def test_deterministic_with_flip(self, corpus_dir, capsys):
        argv = [
            "retrieve", "something", "--collection", str(corpus_dir / "collection.json"),
            "--flip-rate", "0.1", "--seed", "3",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_top1_for_marker_question(self, corpus_dir, capsys):
        questions = json.loads((corpus_dir / "questions.json").read_text())["questions"]
        q = questions[0]
        assert main(["retrieve", q["text"], "--collection", str(corpus_dir / "collection.json"), "--k", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.split()[1] == q["gold_doc_id"]


@pytest.fixture(scope="module")
def checkpoint(corpus_dir, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("ckpt") / "line.ckpt"
    rc = main(
        [
            "train",
            "--collection", str(corpus_dir / "collection.json"),
            "--questions", str(corpus_dir / "questions.json"),
            "--checkpoint", str(ckpt),
            "--epochs", "1",
            "--hidden", "8",
            "--seed", "2",
        ]
    )
    assert rc == 0
    return ckpt


class TestTrainAnswerEval:
    def test_zero_epochs_writes_initial_model(self, corpus_dir, tmp_path):
        ckpt = tmp_path / "init.ckpt"
        rc = main(
            [
                "train",
                "--collection", str(corpus_dir / "collection.json"),
                "--questions", str(corpus_dir / "questions.json"),
                "--checkpoint", str(ckpt),
                "--epochs", "0",
                "--hidden", "6",
            ]
        )
        assert rc == 0
        assert ckpt.exists()

    def test_train_takes_no_k(self, corpus_dir, tmp_path, capsys):
        # training reads no ranking, so --k would be silently ignored
        with pytest.raises(SystemExit):
            main(
                [
                    "train",
                    "--collection", str(corpus_dir / "collection.json"),
                    "--questions", str(corpus_dir / "questions.json"),
                    "--checkpoint", str(tmp_path / "k.ckpt"),
                    "--k", "3",
                ]
            )
        assert "unrecognized arguments: --k 3" in capsys.readouterr().err

    def test_same_seed_same_checkpoint(self, corpus_dir, tmp_path):
        outs = []
        for name in ("a.ckpt", "b.ckpt"):
            ckpt = tmp_path / name
            rc = main(
                [
                    "train",
                    "--collection", str(corpus_dir / "collection.json"),
                    "--questions", str(corpus_dir / "questions.json"),
                    "--checkpoint", str(ckpt),
                    "--epochs", "1",
                    "--hidden", "6",
                    "--seed", "4",
                ]
            )
            assert rc == 0
            outs.append(ckpt.read_bytes())
        assert outs[0] == outs[1]

    def test_eval_attention_backend(self, corpus_dir, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(
            [
                "eval",
                "--collection", str(corpus_dir / "collection.json"),
                "--questions", str(corpus_dir / "questions.json"),
                "--backend", "attention",
                "--report", str(report),
            ]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["summary"]["top5"] == 1.0
        # summary equals recomputation from the per-question entries
        dis_list = [r["dis"] for r in data["per_question"]]
        assert data["summary"]["mean_dis"] == pytest.approx(sum(dis_list) / len(dis_list))
        assert data["summary"]["accuracy"] == pytest.approx(
            sum(1 for d in dis_list if d > 0.8) / len(dis_list)
        )

    def test_eval_bidaf_requires_checkpoint(self, corpus_dir, capsys):
        rc = main(
            [
                "eval",
                "--collection", str(corpus_dir / "collection.json"),
                "--questions", str(corpus_dir / "questions.json"),
                "--backend", "bidaf-line",
            ]
        )
        assert rc == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_eval_bidaf_backend(self, corpus_dir, checkpoint, tmp_path):
        report = tmp_path / "r.json"
        rc = main(
            [
                "eval",
                "--collection", str(corpus_dir / "collection.json"),
                "--questions", str(corpus_dir / "questions.json"),
                "--backend", "bidaf-line",
                "--checkpoint", str(checkpoint),
                "--report", str(report),
            ]
        )
        assert rc == 0
        assert json.loads(report.read_text())["per_question"]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: b"",
            lambda raw: raw[: len(raw) // 2],
            lambda raw: raw[:1000] + bytes([raw[1000] ^ 1]) + raw[1001:],
            lambda raw: npy_bytes(np.zeros(3)),
        ],
        ids=["empty", "truncated", "bit-flip", "npy-array-file"],
    )
    def test_eval_rejects_unreadable_checkpoint_without_traceback(
        self, corpus_dir, checkpoint, tmp_path, capsys, damage
    ):
        ckpt = tmp_path / "damaged.ckpt"
        ckpt.write_bytes(damage(checkpoint.read_bytes()))
        rc = main(
            [
                "eval",
                "--collection", str(corpus_dir / "collection.json"),
                "--questions", str(corpus_dir / "questions.json"),
                "--backend", "bidaf-line",
                "--checkpoint", str(ckpt),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {ckpt}: not a readable checkpoint archive"), err

    def test_eval_rejects_non_finite_checkpoint_without_traceback(self, corpus_dir, checkpoint, tmp_path, capsys):
        with np.load(checkpoint) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["p:w_end"][0] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        with open(ckpt, "wb") as f:
            np.savez(f, **arrays)
        rc = main(
            [
                "eval",
                "--collection", str(corpus_dir / "collection.json"),
                "--questions", str(corpus_dir / "questions.json"),
                "--backend", "bidaf-line",
                "--checkpoint", str(ckpt),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["error: checkpoint key 'p:w_end' holds a non-finite value"]

    def test_backend_mode_mismatch(self, corpus_dir, checkpoint, capsys):
        rc = main(
            [
                "eval",
                "--collection", str(corpus_dir / "collection.json"),
                "--questions", str(corpus_dir / "questions.json"),
                "--backend", "bidaf-word",
                "--checkpoint", str(checkpoint),
            ]
        )
        assert rc == 1
        assert "mode" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "questions, message",
        [
            ({"questions": 5}, "top level: field 'questions' must be a list, not int"),
            ({"questions": [{"question_id": "q", "text": 7}]}, "question 'q': field 'text' must be a string, not 7"),
        ],
        ids=["questions-integer", "text-integer"],
    )
    def test_eval_malformed_questions_without_traceback(self, corpus_dir, tmp_path, capsys, questions, message):
        path = tmp_path / "questions.json"
        path.write_text(json.dumps(questions))
        rc = main(["eval", "--collection", str(corpus_dir / "collection.json"), "--questions", str(path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_train_rejects_zero_hidden_without_traceback(self, corpus_dir, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--collection", str(corpus_dir / "collection.json"),
                "--questions", str(corpus_dir / "questions.json"),
                "--checkpoint", str(tmp_path / "h0.ckpt"),
                "--hidden", "0",
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: hidden must be an integer >= 1, got 0\n"
        assert not (tmp_path / "h0.ckpt").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--learning-rate", "nan", "optimizer field 'lr' must be a finite number, not nan"),
            ("--learning-rate", "inf", "optimizer field 'lr' must be a finite number, not inf"),
            ("--learning-rate", "-0.5", "optimizer field 'lr' must be > 0, not -0.5"),
            ("--learning-rate", "0", "optimizer field 'lr' must be > 0, not 0.0"),
            ("--epochs", "-1", "epochs must be >= 0, got -1"),
        ],
        ids=["lr-nan", "lr-inf", "lr-negative", "lr-zero", "epochs-negative"],
    )
    def test_train_rejects_bad_setting_without_traceback(self, corpus_dir, tmp_path, capsys, flag, value, message):
        ckpt = tmp_path / "bad.ckpt"
        rc = main(
            [
                "train",
                "--collection", str(corpus_dir / "collection.json"),
                "--questions", str(corpus_dir / "questions.json"),
                "--checkpoint", str(ckpt),
                "--hidden", "6",
                flag, value,
            ]
        )
        assert rc == 1
        out = capsys.readouterr()
        assert out.err.splitlines() == [f"error: {message}"]
        assert out.out == ""  # no loss line
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("hidden", "8", "hidden must be an integer >= 1, got '8'"),
            ("max_span", 0, "max_span must be an integer >= 1, got 0"),
        ],
        ids=["hidden-string", "max-span-zero"],
    )
    def test_eval_rejects_bad_checkpoint_config_without_traceback(
        self, corpus_dir, tmp_path, capsys, field, value, message
    ):
        ckpt = tmp_path / "word.ckpt"
        train = ["train", "--collection", str(corpus_dir / "collection.json"), "--questions", str(corpus_dir / "questions.json")]
        assert main(train + ["--checkpoint", str(ckpt), "--epochs", "0", "--hidden", "8", "--mode", "word"]) == 0
        with np.load(ckpt) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        meta["config"][field] = value
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(ckpt, "wb") as f:
            np.savez(f, **arrays)
        capsys.readouterr()
        rc = main(
            [
                "eval",
                "--collection", str(corpus_dir / "collection.json"),
                "--questions", str(corpus_dir / "questions.json"),
                "--backend", "bidaf-word",
                "--checkpoint", str(ckpt),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_answer_command(self, corpus_dir, capsys):
        questions = json.loads((corpus_dir / "questions.json").read_text())["questions"]
        q = questions[0]
        rc = main(
            ["answer", q["text"], "--collection", str(corpus_dir / "collection.json")]
        )
        assert rc == 0
        assert q["gold_doc_id"] in capsys.readouterr().out

    def test_inputs_not_mutated(self, corpus_dir):
        before = (corpus_dir / "collection.json").read_bytes()
        main(["retrieve", "anything", "--collection", str(corpus_dir / "collection.json"), "--flip-rate", "0.2"])
        assert (corpus_dir / "collection.json").read_bytes() == before

    @pytest.mark.parametrize("command", ["retrieve", "answer", "eval", "train"])
    @pytest.mark.parametrize("flip_rate", ["-0.1", "nan", "1.5"])
    def test_rejects_bad_flip_rate_without_traceback(self, corpus_dir, tmp_path, capsys, command, flip_rate):
        argv = [command, "--collection", str(corpus_dir / "collection.json"), "--flip-rate", flip_rate]
        report, ckpt = tmp_path / "report.json", tmp_path / "model.ckpt"
        argv += {
            "retrieve": ["dear sir"],
            "answer": ["dear sir"],
            "eval": ["--questions", str(corpus_dir / "questions.json"), "--report", str(report)],
            "train": ["--questions", str(corpus_dir / "questions.json"), "--checkpoint", str(ckpt), "--hidden", "4"],
        }[command]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.err.splitlines() == [f"error: flip_rate {float(flip_rate)} outside [0, 1]"]
        assert out.out == ""
        assert not report.exists() and not ckpt.exists()
