"""Tests of the benchmark itself: the smoke mode of every workload, the
answer table's derivations and the refusals.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import answers  # noqa: E402
import run  # noqa: E402


def bench(*extra, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seed", "7",
         "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170, env=env,
    )


def gl_order(n: int, q: int) -> int:
    out = 1
    for k in range(n):
        out *= q**n - q**k
    return out


def gaussian_total(n: int, q: int) -> int:
    """Number of subspaces of F_q^n: the subgroups of C_q^n."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


class AnswerTable(unittest.TestCase):
    def test_c3_cubed(self):
        want = answers.C3_ANSWERS
        self.assertEqual(gaussian_total(3, 3), want["subgroups"])
        self.assertEqual(gl_order(3, 3), want["normal_automorphisms"])
        self.assertEqual(gl_order(3, 3) // 48, want["factorizations"])
        self.assertEqual(gl_order(2, 3) * gl_order(1, 3), want["normal_automorphisms_omega"])

    def test_c2_fifth(self):
        want = answers.P2_GROUPS["c2^5"]["answers"]
        self.assertEqual(gaussian_total(5, 2), want["subgroups"])

    def test_factorization_counts(self):
        self.assertEqual(gl_order(2, 2) // 2, answers.FACTORIZATION_COUNTS["inner-c2c2"])
        self.assertEqual(gl_order(2, 3) // 8, answers.FACTORIZATION_COUNTS["inner-c3c3"])
        self.assertEqual(gl_order(3, 2) // 6, answers.FACTORIZATION_COUNTS["inner-c2c2c2"])


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [(0, -1, "workload", 0.0, 10.0, 1.0), (1, 0, "entry", 1.0, 9.0, 1.0),
                 (2, 1, "a", 2.0, 5.0, 0.5), (3, 1, "a", 5.0, 6.0, 1.0)]
        self.assertEqual(run.self_times(spans), {"workload": 2.0, "entry": 4.0, "a": 2.5})


class Smoke(unittest.TestCase):
    def test_every_workload_and_mode(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        for workload in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--trace", str(trace), "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertCountEqual(
                        [m["name"] for m in spec[kind]], list(result["metrics"])
                    )


class Refusals(unittest.TestCase):
    def test_guardrail_override_is_refused(self):
        env = dict(os.environ, FUSIONSYS_GUARDRAIL="100")
        proc = bench("--workload", "p2-lattice", "--smoke", env=env)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")

    def test_without_sources_no_result(self):
        bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", "p2-lattice", "--smoke", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
