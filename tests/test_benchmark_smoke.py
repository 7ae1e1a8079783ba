"""The benchmark's surface: each phocbench workload, built from its inputs at
a fixed seed, runs a fixed number of operations and passes its own checks.
A change that removes or breaks what phocbench/measure.py calls fails here
rather than in a benchmark run."""

import sys
from pathlib import Path

import numpy as np
import pytest

PHOCBENCH = Path(__file__).resolve().parent.parent / "phocbench"
SEED = 1
OPERATIONS = 4


@pytest.mark.parametrize("workload", ["qa-clean", "qa-noisy", "train-line", "qa-bidaf-word"])
def test_workload_runs_and_passes_its_checks(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PHOCBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave phocbench/ as checked in
    import inputs
    import measure

    inputs.write(workload, SEED, tmp_path)
    kind = measure.TrainWorkload if workload == "train-line" else measure.QaWorkload
    work = kind(workload, tmp_path, SEED)
    records = [work.run_one(i) for i in range(OPERATIONS)]
    # the rng measure.main hands to check
    assert work.check(measure.FileView(tmp_path), records, np.random.default_rng([SEED, 3])) == []
