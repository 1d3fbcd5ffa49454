"""One full benchmark pass of each workload.

The benchmark checks every answer of a pass against its own answer
table, so a factorization or product-check regression fails here and
not only in a benchmark run; the ``catalog-reports`` pass checks the
CLI reports, ``krs`` and ``factorize --exhaustive`` among them.  The
sources and the benchmark are copied to a temporary directory, where
the run writes its records.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["p2-lattice", "c3-exhaustive", "catalog-reports"])
def test_one_benchmark_pass_is_correct(tmp_path, workload):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path,
        # the benchmark runs at default limits only
        env={k: v for k, v in os.environ.items() if k != "FUSIONSYS_GUARDRAIL"},
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, proc.stdout[-2000:]
    assert summary["failed"] == 0, proc.stdout[-2000:]
    assert summary["attempted"] > 0
