"""Benchmark entry point.

    python3 phocbench/run.py --workload qa-clean --seed 1 --seconds 10 --trace 0

Writes the workload's inputs for the seed to phocbench/work/<workload>/, then starts
the measured process (measure.py) with BLAS pinned to one thread and the
checkout's src/ as the only place phocqa is imported from.  The measured
process prints an info line and, last, the result line.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 175  # a run must end within 180 s


def main() -> int:
    began = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "phocqa" / "__init__.py").is_file():
        print(f"phocqa sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    if args.workload not in inputs.SPECS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(inputs.SPECS)}", file=sys.stderr)
        return 2
    work = HERE / "work" / args.workload  # reused by every run of the workload
    inputs.write(args.workload, args.seed, work)

    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--inputs", str(work), "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--started", repr(time.time()),
    ]
    try:
        return subprocess.run(command, env=env, timeout=TIME_LIMIT_S - (time.monotonic() - began)).returncode
    except subprocess.TimeoutExpired:
        print(f"measured process exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
