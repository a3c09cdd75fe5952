"""Smoke test of the benchmark itself: the query stream is a function of the
seed, the gates reject wrong answers, times scale to the reference speed, and
a tiny run of each workload passes its gates.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import speed  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = workloads.load_golden()


def stream(seed, pass_index=0):
    queries = workloads.query_stream(seed, pass_index, GOLDEN["pool"])
    return [(q.entry, q.text, q.copy_rows) for q in queries]


class QueryStreamTest(unittest.TestCase):
    def test_one_seed_gives_the_same_stream_twice(self):
        first = stream(7)
        self.assertEqual(first, stream(7))
        self.assertEqual(len(first), len(workloads.ORDERS) * workloads.PER_ORDER)
        self.assertGreaterEqual(len(first) // 20, 10, "under ten samples beyond p95")
        self.assertNotEqual(first, stream(8))
        self.assertNotEqual(first, stream(7, 1))

    def test_gates_reject_wrong_answers(self):
        q = min(workloads.query_stream(7, 0, GOLDEN["pool"]), key=lambda q: len(q.rows))
        op = workloads.query_op(q)
        answer = op.run(workloads.Tracer(False))
        problems, material = op.check(answer)
        self.assertEqual(problems, [])
        self.assertEqual(workloads.digest(material), GOLDEN["pool"][q.entry]["digest"])

        self.assertTrue(op.check(dict(answer, phi=None))[0])
        conj = answer["conj"]
        self.assertTrue(op.check(dict(answer, conj=replace(conj, transitive=not conj.transitive)))[0])
        e1, v1, w, e2 = answer["chain"]
        flipped = (e1, v1, w, replace(e2, holds=not e2.holds))
        material = op.check(dict(answer, chain=flipped))[1]
        self.assertNotEqual(workloads.digest(material), GOLDEN["pool"][q.entry]["digest"])


class SpeedProbeTest(unittest.TestCase):
    def test_scaled_drops_probe_time_and_scales_to_reference(self):
        probe = speed.SpeedProbe()
        probe.mids = [10.0, 10.5, 11.0, 30.0]
        probe.times = [2 * speed.REF_S] * 3 + [speed.REF_S]
        # 1 s between the marks, 0.2 s of it in the probe, at half the
        # reference speed; the sample at 30 s lies outside the window
        self.assertAlmostEqual(probe.scaled((10.0, 0.0), (11.0, 0.2)), 0.4)


class TinyRunTest(unittest.TestCase):
    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_each_workload_passes_its_gates(self):
        names = {m["name"] for m in CONTRACT["end_to_end"]}
        for workload in ("paper", "search", "queries"):
            with self.subTest(workload=workload):
                result = self.run_bench(workload, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), names)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_run_reports_every_layer(self):
        result = self.run_bench("search", 1)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in CONTRACT["per_layer"]})
        self.assertGreater(result["metrics"]["search.semigroup_tables.o4.s"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
