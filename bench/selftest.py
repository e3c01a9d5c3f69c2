"""Self-test of the benchmark, run from the repository root:

    python3 bench/selftest.py

Runs every workload at a tiny size and checks that each metric BENCHMARK.json
names is printed with its unit, that a deliberately perturbed answer is
counted as failed, that operation times are scaled by the speed slices taken
near them, and that the benchmark refuses to run without sources.
Takes about two minutes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(done) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"benchmark exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class PrintsEveryMetric(unittest.TestCase):
    def assert_metrics(self, result: dict, key: str) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        names = [m["name"] for m in SPEC[key]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for entry in SPEC[key]:
            got = result["metrics"][entry["name"]]
            self.assertEqual(got["unit"], entry["unit"], entry["name"])
            self.assertIsInstance(got["value"], (int, float), entry["name"])

    def test_end_to_end_on_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                done = bench("--workload", w["name"], "--seed", "3", "--seconds", "0.01",
                             "--trace", "0")
                result = result_of(done)
                self.assert_metrics(result, "end_to_end")
                for name, got in result["metrics"].items():
                    self.assertGreater(got["value"], 0, name)

    def test_per_layer_on_a_traced_run(self):
        done = bench("--workload", "oracle-paths", "--seed", "3", "--seconds", "0.01", "--trace", "1")
        result = result_of(done)
        self.assert_metrics(result, "per_layer")
        agree = result["metrics"]["monodromy.roadmap12.agree"]["value"]
        self.assertIsInstance(agree, int)
        self.assertTrue(0 <= agree <= 12, agree)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            done = bench("--workload", "oracle-paths", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


def _moved(germ, by: float):
    """The germ with its value at the center moved by `by`."""
    return dataclasses.replace(germ, coeffs=(germ.coeffs[0] + by,) + germ.coeffs[1:])


def _perturb(inp, res):
    """The same answer moved by a small amount a correct program would not
    produce."""
    rep = dataclasses.replace
    if inp[0] == "target":
        path, report = res
        return path, rep(report, oracle=rep(report.oracle, lift_end=report.oracle.lift_end + 1e-6))
    if inp[0] in ("polyline", "chord", "classify"):
        return rep(res, lift_end=res.lift_end + 1e-6)
    if inp[0] == "reach":
        return rep(res, points=res.points[:-1] + (res.points[-1] * (1 + 1e-6),))
    if inp[0] in ("log-route", "log-polyline"):
        path, chain = res
        return path, rep(chain, elements=chain.elements[:-1] + (_moved(chain.final, 1e-6),))
    if inp[0] == "expexp":
        b = res.branch_b
        return rep(res, branch_b=rep(b, elements=b.elements[:-1] + (_moved(b.final, 1e-5),)))
    raise ValueError(f"no perturbation for {inp[0]}")


class CountsPerturbedAnswersAsFailed(unittest.TestCase):
    def test_every_operation_kind(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        sys.path.insert(0, HERE)
        import run
        import workloads

        for cls in (*workloads.WORKLOADS.values(), workloads.LogChains):
            with self.subTest(workload=cls.name):
                w = cls(3)
                w.setup()
                honest = run.Tally(w)
                for i in range(min(w.cycle, 7)):  # every kind of operation
                    honest.add(*run.run_op(w, i))
                answer = w.run
                w.run = lambda inp: _perturb(inp, answer(inp))
                perturbed = run.Tally(w)
                for i in range(min(w.cycle, 7)):
                    perturbed.add(*run.run_op(w, i))
                self.assertEqual(honest.failed, 0, honest.problems)
                self.assertEqual(perturbed.failed, len(perturbed.times))


class ScalesTimingsToReferenceSpeed(unittest.TestCase):
    def test_operation_scaled_by_nearby_slices(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        sys.path.insert(0, HERE)
        import run
        import speed
        import workloads

        sp = speed.Speed()
        # slices at half the reference time near t=10, at the reference time
        # near t=20: the machine ran twice as fast around the first operation
        ref = speed.REFERENCE_S["mixed"]
        sp.samples = [ref / 2] * 3 + [ref] * 3
        sp.ends = [9.9, 10.0, 10.1, 19.9, 20.0, 20.1]
        tally = run.Tally(workloads.OraclePaths(1))
        tally.times, tally.oks, tally.failed = [0.5, 1.0], [True, True], 0
        tally.spans = [(10.0, 10.5), (20.0, 21.0)]
        m = run.end_to_end(tally, 0.1, sp)
        self.assertAlmostEqual(m["ops_per_s"], 1.0)
        self.assertAlmostEqual(m["op_ms.p50"], 1000.0)


if __name__ == "__main__":
    unittest.main()
