"""Tests of the benchmark's metric arithmetic.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import metrics
import run


class PercentileBySampleCount(unittest.TestCase):
    def test_quantile_is_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.quantile(values, 0.5), 50)
        self.assertEqual(metrics.quantile(values, 0.99), 99)
        self.assertEqual(metrics.quantile(values, 1.0), 100)
        self.assertEqual(metrics.quantile([7.0], 0.99), 7.0)

    def test_ten_samples_must_lie_beyond(self):
        self.assertFalse(metrics.supports(999, 0.99))
        self.assertTrue(metrics.supports(1000, 0.99))
        self.assertFalse(metrics.supports(19, 0.5))
        self.assertTrue(metrics.supports(20, 0.5))
        self.assertTrue(metrics.supports(100, 0.9))

    def test_unsupported_percentile_is_withheld(self):
        self.assertIsNone(metrics.supported_quantile([1.0] * 999, 0.99))
        self.assertEqual(metrics.supported_quantile([2.0] * 1000, 0.99), 2.0)


class Rates(unittest.TestCase):
    def test_rate(self):
        self.assertEqual(metrics.rate(30, 2.0), 15.0)
        with self.assertRaises(ValueError):
            metrics.rate(1, 0.0)

    def test_round_rates_group_consecutive_units(self):
        seconds = [1.0, 2.0, 1.0, 4.0, 4.0, 4.0, 9.0]  # last unit: partial
        jobs = [10, 10, 10, 10, 10, 10, 10]
        self.assertEqual(metrics.round_rates(seconds, jobs, 3), [7.5, 2.5])

    def test_short_run_is_one_partial_round(self):
        self.assertEqual(metrics.round_rates([1.0, 3.0], [2, 2], 6), [1.0])

    def test_round_rates_need_matching_lists(self):
        with self.assertRaises(ValueError):
            metrics.round_rates([1.0], [1, 2], 1)

    def test_pass_rates(self):
        self.assertEqual(metrics.pass_rates(90, [2.0, 3.0]), [45.0, 30.0])

    def test_median_of_rates(self):
        self.assertEqual(metrics.median([3.0, 1.0, 2.0]), 2.0)


class FailureShare(unittest.TestCase):
    def test_success_share(self):
        self.assertEqual(metrics.success_share(200, 0), 1.0)
        self.assertEqual(metrics.success_share(200, 50), 0.75)

    def test_success_share_rejects_bad_counts(self):
        with self.assertRaises(ValueError):
            metrics.success_share(0, 0)
        with self.assertRaises(ValueError):
            metrics.success_share(10, 11)

    def test_failed_operations_count_distinct_ids(self):
        self.assertEqual(metrics.failed_operations(100, [], False), 0)
        # Three messages about job 4 and one about job 9: two failed jobs.
        self.assertEqual(metrics.failed_operations(100, [4, 4, 4, 9], False),
                         2)

    def test_failed_pass_fails_its_offered_jobs(self):
        # Three passes of 500 offered jobs; pass 1 failed twice.
        self.assertEqual(
            metrics.failed_operations(1500, [1, 1], False, per_id=500), 500)
        self.assertEqual(
            metrics.failed_operations(1500, [0, 1, 2, 2], False, per_id=500),
            1500)

    def test_whole_run_failure_fails_everything(self):
        self.assertEqual(metrics.failed_operations(70, [], True), 70)
        with self.assertRaises(ValueError):
            metrics.failed_operations(0, [], False)

    def test_spread_is_interquartile_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        # statistics.quantiles(n=4): q1 = 2.75, q3 = 8.25, median 5.5
        self.assertAlmostEqual(metrics.spread(values), 1.0)


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
            .read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
