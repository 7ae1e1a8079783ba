"""Smoke tests: each script under scripts/ runs to the end on tiny arguments,
so an API change that breaks one shows up here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_flip_sweep():
    lines = run_script("flip_sweep.py", "--seeds", "2", "--num-docs", "30")
    assert lines[0].split() == ["flip_rate", "top1", "top1_sd", "top5", "top5_sd"]
    rows = [[float(x) for x in line.split()] for line in lines[1:]]
    assert [row[0] for row in rows] == [0.0, 0.05, 0.1, 0.2, 0.3, 0.5]
    assert rows[0][1:] == [1.0, 0.0, 1.0, 0.0]  # clean PHOCs always rank the gold document first
    assert all(0.0 <= row[1] <= row[3] <= 1.0 for row in rows)


def test_overfit_curve():
    lines = run_script("overfit_curve.py", "--mode", "both", "--epochs", "2", "--hidden", "8")
    assert [line for line in lines if line.startswith("==")] == [
        "== mode=line hidden=8 seed=0 ==", "== mode=word hidden=8 seed=0 ==",
    ]
    epochs = [line.split() for line in lines if line.startswith("epoch")]
    assert [int(e[1]) for e in epochs] == [2, 2]
    assert all(e[2] == "loss" and e[4] == "acc" and 0.0 <= float(e[5]) <= 1.0 for e in epochs)
