"""Self-test of the benchmark's own logic (under a second).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import error_rate, latency_summary, tail_rank  # noqa: E402
from tracer import NullTracer, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Executor, load_fixture, make_jobs  # noqa: E402

FIXTURE = load_fixture(HERE.parent)
SMALL_GROUPS = ("A2", "B2", "G(3,3,3)", "I2(5)")


def _run_table_jobs(fixture: dict) -> list[tuple[str, bool]]:
    jobs = [
        job for job in make_jobs("tables", 1, fixture)
        if job["op"] == "table" and job["group"] in SMALL_GROUPS
    ]
    executor = Executor(NullTracer(), fixture)
    return [(job["group"], executor.run(job)[0]) for job in jobs]


class VerdictTest(unittest.TestCase):
    def test_fixture_rows_pass(self):
        outcomes = _run_table_jobs(FIXTURE)
        self.assertEqual(len(outcomes), len(SMALL_GROUPS))
        self.assertEqual(error_rate(sum(not ok for _, ok in outcomes), len(outcomes)), 0)

    def test_corrupted_row_raises_error_rate(self):
        corrupted = copy.deepcopy(FIXTURE)
        corrupted["G(3,3,3)"][0][1] *= -1
        outcomes = _run_table_jobs(corrupted)
        failed = [group for group, ok in outcomes if not ok]
        self.assertEqual(failed, ["G(3,3,3)"])
        self.assertGreater(error_rate(len(failed), len(outcomes)), 0)

    def test_wrong_algebra_dimension_fails(self):
        job = {"op": "algebra", "group": "I2(5)", "class_size": 5, "m": 0, "dim": 14}
        ok, dim = Executor(NullTracer(), FIXTURE).run(job)
        self.assertEqual((ok, dim), (False, 13))


class InputTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS:
            first = json.dumps(make_jobs(workload, 11, FIXTURE))
            again = json.dumps(make_jobs(workload, 11, copy.deepcopy(FIXTURE)))
            self.assertEqual(first, again, workload)

    def test_seed_changes_order_not_work(self):
        for workload in WORKLOADS:
            a = make_jobs(workload, 1, FIXTURE)
            b = make_jobs(workload, 2, FIXTURE)
            self.assertNotEqual(a, b, workload)
            self.assertEqual(len(a), len(b), workload)
            self.assertEqual(
                sorted(j["op"] for j in a), sorted(j["op"] for j in b), workload
            )


class PercentileTest(unittest.TestCase):
    def test_known_answers(self):
        one = [float(x) for x in range(100, 0, -1)]
        summary = latency_summary([one])
        self.assertEqual(summary["p50"], 50.5)
        self.assertEqual(summary["tail"], 90.0)
        self.assertEqual(summary["tail_percentile"], 90.0)
        self.assertEqual(summary["operations"], 100)
        two = latency_summary([one, [x + 0.5 for x in one]])
        self.assertEqual((two["p50"], two["tail"], two["samples"]), (50.75, 90.5, 200))
        self.assertEqual(two["tail_percentile"], 90.0)
        self.assertEqual(tail_rank(66), 56)
        self.assertEqual(latency_summary([[1.0] * 10 + [2.0]])["tail"], 1.0)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            tail_rank(10)


class TracerTest(unittest.TestCase):
    def test_layer_sums(self):
        tracer = Tracer()
        spans = [("groups", "build", 1.0), ("rep", "integrability", 2.0), ("rep", "t_scalar", 0.5)]
        for layer, kind, seconds in spans:
            span = tracer.span(layer, kind)
            span.seconds = seconds
        tracer.spans[1].count(all_m_proofs=1, commutator_pairs=7)
        out = layer_metrics(tracer.spans, 4.0)
        self.assertEqual(out["groups.busy_s"], 1.0)
        self.assertEqual(out["rep.busy_s"], 2.5)
        self.assertEqual(out["rep.integrability_s"], 2.0)
        self.assertEqual(out["rep.other_s"], 0.5)
        self.assertEqual(out["rep.commutator_pairs"], 7)
        self.assertEqual(out["rep.sampled_proofs"], 0)
        self.assertEqual(out["unattributed_s"], 0.5)
        with self.assertRaises(ValueError):
            tracer.span("cyclotomic", "x")


if __name__ == "__main__":
    unittest.main()
