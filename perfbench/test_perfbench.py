"""Tests of the benchmark itself: generators, reference answers and the checker.

    python3 -m pytest perfbench/test_perfbench.py -q
    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import random
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ribbon_schur.compositions import Composition, compose  # noqa: E402
from ribbon_schur.factorization import is_irreducible  # noqa: E402


class TestGenerators(unittest.TestCase):
    def test_compose_agrees_with_the_package(self):
        rng = random.Random(0)
        for _ in range(200):
            a = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            b = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            self.assertEqual(workloads.compose(a, b),
                             tuple(compose(Composition(a), Composition(b))))

    def test_certified_atoms_are_the_asymmetric_irreducibles(self):
        for s in range(4, 9):
            want = [c for c in workloads.compositions_of(s)
                    if c != c[::-1] and is_irreducible(Composition(c))]
            self.assertEqual(workloads.asymmetric_atoms(s), want)

    def test_seed_fixes_the_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.build(name, 7).inputs_hash(),
                             workloads.build(name, 7).inputs_hash())
        self.assertNotEqual(workloads.build("equiv-long", 7).inputs_hash(),
                            workloads.build("equiv-long", 8).inputs_hash())

    def test_reference_sequences(self):
        ref = workloads.reference_sequences(40)
        self.assertEqual(ref["all"][:10], [1, 2, 3, 6, 10, 20, 36, 72, 135, 272])
        self.assertEqual(ref["all"][17], 65770)
        self.assertEqual(ref["irreducible"][:6], [0, 0, 1, 2, 8, 10])
        self.assertEqual(ref["lexmin"][8], 136)

    def test_fingerprint_decides_the_fixed_pair(self):
        self.assertEqual(workloads.fingerprint((1, 2, 1, 3, 2)),
                         workloads.fingerprint((1, 3, 2, 1, 2)))
        self.assertNotEqual(workloads.fingerprint((1, 2)), workloads.fingerprint((1, 1, 1)))


class TestChecker(unittest.TestCase):
    """Real CLI jobs pass; the same outputs fail against a wrong expectation."""

    @classmethod
    def setUpClass(cls):
        (run.WORK / "tmp").mkdir(parents=True, exist_ok=True)
        cls.launcher = run.Launcher(run.child_env())
        cls.addClassCleanup(cls.launcher.close)
        cls.ref = check.Reference(workloads.reference_sequences(100), run.ROOT)
        f = [(1, 3), (2, 1, 1), (1, 4)]
        x = workloads.fmt(workloads.compose_all(f))
        cls.factor = cls.execute(workloads.Job(
            "factor", ["factor", x, "--json"],
            {"exit": 0, "factors": [list(a) for a in f]}))
        cache_dir = ".perfbench-work/test-cache"
        shutil.rmtree(run.ROOT / cache_dir, ignore_errors=True)
        expect = {"exit": 0, "sequence": "all", "bound": 50, "cache_dir": cache_dir}
        argv = ["count", "--max-n", "50", "--cache-dir", cache_dir]
        cls.cold = cls.execute(workloads.Job("count", argv, dict(expect, warm=False)))
        cls.warm = cls.execute(workloads.Job("count", argv, dict(expect, warm=True)))

    @classmethod
    def execute(cls, job):
        return run.run_job(job, cls.launcher, None)

    def problems(self, r, round_results=()):
        return check.problems(r, list(round_results) or [r], self.ref)

    def test_correct_outputs_pass(self):
        self.assertEqual(self.problems(self.factor), {})
        pair = [self.cold, self.warm]
        self.assertEqual(self.problems(self.cold, pair), {})
        self.assertEqual(self.problems(self.warm, pair), {})

    def test_wrong_expected_answer_is_flagged(self):
        job = self.factor.job
        wrong = workloads.Job(job.label, job.argv,
                              dict(job.expect, factors=job.expect["factors"][::-1]))
        r = check.Result(wrong, self.factor.exit, self.factor.stdout, b"", False, 0.1, 0, 0.0)
        self.assertEqual(set(self.problems(r)), {"wrong"})

    def test_wrong_exit_code_is_flagged(self):
        job = self.factor.job
        r = check.Result(workloads.Job(job.label, job.argv, dict(job.expect, exit=1)),
                         0, self.factor.stdout, b"", False, 0.1, 0, 0.0)
        self.assertEqual(set(self.problems(r)), {"exit"})

    def test_traceback_and_timeout_are_flagged(self):
        r = check.Result(self.factor.job, 1, b"", b"Traceback (most recent call last):\nboom\n",
                         True, 60.0, 0, 0.0)
        self.assertEqual(set(self.problems(r)), {"timeout", "traceback", "exit", "wrong"})

    def test_cold_run_must_store(self):
        self.assertTrue(self.cold.cache_files)
        r = check.Result(self.cold.job, 0, self.cold.stdout, b"", False, 0.1, 0, 0.0,
                         cache_files=[])
        self.assertEqual(set(self.problems(r, [r, self.warm])), {"wrong"})

    def test_warm_output_must_match_cold(self):
        changed = check.Result(self.cold.job, 0, self.cold.stdout.replace(b"\n50 ", b"\n50 1"),
                               b"", False, 0.1, 0, 0.0)
        self.assertIn("wrong", self.problems(self.warm, [changed, self.warm]))


if __name__ == "__main__":
    unittest.main()
