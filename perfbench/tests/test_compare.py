#!/usr/bin/env python3
"""Tests of the run-set comparison tool: python3 perfbench/tests/test_compare.py"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import compare  # noqa: E402

METRICS = [
    {"name": "solve_s.p50", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "solves_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]


class SummaryTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        med, q1, q3, spread = compare.summary([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(med, 3.0)
        self.assertEqual((q1, q3), (1.5, 4.5))
        self.assertAlmostEqual(spread, 1.0)

    def test_single_value_has_no_spread(self):
        self.assertEqual(compare.summary([2.0]), (2.0, 2.0, 2.0, 0.0))


class VerdictTest(unittest.TestCase):
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]

    def test_same_distribution_is_within(self):
        change, v = compare.verdict(self.steady, list(reversed(self.steady)), 0.1, "lower")
        self.assertEqual(v, "within")
        self.assertAlmostEqual(change, 0.0)

    def test_slower_beyond_bound_is_regression(self):
        b = [x * 1.2 for x in self.steady]
        change, v = compare.verdict(self.steady, b, 0.1, "lower")
        self.assertEqual(v, "REGRESSION")
        self.assertAlmostEqual(change, 0.2)

    def test_higher_is_better_metric_direction(self):
        b = [x * 0.8 for x in self.steady]  # throughput fell by 20 %
        self.assertEqual(compare.verdict(self.steady, b, 0.1, "higher")[1], "REGRESSION")
        b = [x * 1.2 for x in self.steady]
        self.assertEqual(compare.verdict(self.steady, b, 0.1, "higher")[1], "better")

    def test_wide_spread_is_unresolved(self):
        noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]
        self.assertEqual(compare.verdict(self.steady, noisy, 0.1, "lower")[1], "unresolved")

    def test_wide_spread_but_every_run_better_is_better(self):
        a = [2.0, 3.0, 2.5, 2.2, 2.8]
        b = [1.0, 1.5, 1.2, 1.1, 1.4]
        self.assertEqual(compare.verdict(a, b, 0.1, "lower")[1], "better")


class EndToEndTest(unittest.TestCase):
    def write(self, runs):
        fd, path = tempfile.mkstemp(suffix=".jsonl")
        with os.fdopen(fd, "w") as fp:
            for w, solve, rate in runs:
                fp.write(json.dumps({"workload": w, "seed": 1, "trace": 0, "result": {
                    "correct": True, "attempted": 1, "failed": 0, "metrics": {
                        "solve_s.p50": {"value": solve, "unit": "s"},
                        "solves_per_s": {"value": rate, "unit": "1/s"}}}}) + "\n")
            # Traced runs carry per-layer metrics only and are skipped.
            fp.write(json.dumps({"workload": "w", "seed": 1, "trace": 1, "result": {
                "correct": True, "attempted": 1, "failed": 0, "metrics": {
                    "ilu.fwd_s": {"value": 1.0, "unit": "s"}}}}) + "\n")
        self.addCleanup(os.remove, path)
        return path

    def test_rows_per_workload_and_metric(self):
        a = self.write([("w", 1.0, 10.0), ("w", 1.01, 10.1), ("w", 0.99, 9.9)])
        b = self.write([("w", 1.3, 10.0), ("w", 1.31, 10.1), ("w", 1.29, 9.9)])
        rows = compare.compare(compare.load_runs(a), compare.load_runs(b), METRICS)
        verdicts = {(r[0], r[1]): r[5] for r in rows}
        self.assertEqual(verdicts, {("w", "solve_s.p50"): "REGRESSION",
                                    ("w", "solves_per_s"): "within"})

    def test_missing_workload_is_reported(self):
        a = self.write([("w", 1.0, 10.0)])
        b = self.write([("v", 1.0, 10.0)])
        rows = compare.compare(compare.load_runs(a), compare.load_runs(b), METRICS)
        self.assertTrue(all(r[5] == "missing" for r in rows))
        self.assertEqual(len(rows), 4)


if __name__ == "__main__":
    unittest.main()
