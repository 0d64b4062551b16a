"""Tests of the benchmark's own statistics (perfbench/benchstats.py).

Run: python3 -m unittest discover -s perfbench/tests
"""

import statistics
import struct
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import benchstats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q2, q3 = benchstats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, benchstats.median(values))

    def test_quartiles_of_one_value(self):
        self.assertEqual(benchstats.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_relative_spread(self):
        # quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
        values = list(range(1, 11))
        self.assertAlmostEqual(benchstats.relative_spread(values),
                               (8.25 - 2.75) / 5.5)
        self.assertEqual(benchstats.relative_spread([2.0] * 5), 0.0)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 1001)]
        self.assertEqual(benchstats.percentile(values, 50), 500.0)
        self.assertEqual(benchstats.percentile(values, 99), 990.0)

    def test_refuses_a_percentile_with_fewer_than_ten_beyond(self):
        values = [float(v) for v in range(1, 1001)]
        # p99.1 leaves 9 samples beyond it; p99 leaves 10.
        self.assertEqual(benchstats.samples_beyond(1000, 99), 10)
        self.assertIsNone(benchstats.percentile(values, 99.1))
        self.assertIsNone(benchstats.percentile(list(range(100)), 99))
        self.assertIsNone(benchstats.percentile([], 50))

    def test_highest_percentile_keeps_ten_beyond(self):
        self.assertEqual(benchstats.highest_percentile(1000), 99)
        self.assertEqual(benchstats.highest_percentile(100), 90)
        self.assertEqual(benchstats.highest_percentile(20), 50)
        self.assertEqual(benchstats.highest_percentile(12), 16)
        self.assertIsNone(benchstats.highest_percentile(10))
        for n in (11, 57, 100, 333, 5000):
            p = benchstats.highest_percentile(n)
            self.assertGreaterEqual(benchstats.samples_beyond(n, p), 10)
            if p < 99:
                self.assertLess(benchstats.samples_beyond(n, p + 1), 10)

    def test_tail_never_reports_below_the_median(self):
        values = sorted(float(v) for v in range(1, 13))
        self.assertEqual(benchstats.tail(values), (50, 6.5))
        many = [float(v) for v in range(1, 1001)]
        self.assertEqual(benchstats.tail(many), (99, 990.0))
        hundred = [float(v) for v in range(1, 101)]
        self.assertEqual(benchstats.tail(hundred), (90, 90.0))


class Windows(unittest.TestCase):
    def test_groups_by_completion_second_in_time_order(self):
        latencies = [5.0, 1.0, 3.0, 2.0, 4.0]
        done = [2.5, 0.1, 0.9, 2.0, 1.2]
        self.assertEqual(benchstats.windows(latencies, done),
                         [[1.0, 3.0], [4.0], [2.0, 5.0]])

    def test_calm_takes_the_quartile_on_the_better_side(self):
        values = list(range(1, 11))
        self.assertEqual(benchstats.calm(values, "higher"), 8.25)
        self.assertEqual(benchstats.calm(values, "lower"), 2.75)
        self.assertEqual(benchstats.calm([3.0], "lower"), 3.0)


class SelfTime(unittest.TestCase):
    # (start, end, parent, op, instrs, name)
    def test_nested_spans(self):
        spans = [
            (0, 100, -1, 1, 0, 0),   # op: 100 ns, children 30 + 50
            (10, 40, 0, 1, 8, 1),    # a: 30 ns, child 10
            (20, 30, 1, 1, 8, 2),    # b inside a: 10 ns
            (45, 95, 0, 1, 8, 2),    # b: 50 ns
            (200, 260, -1, 2, 0, 0),  # a second op: 60 ns, child 20
            (210, 230, 4, 2, 4, 1),  # a: 20 ns
        ]
        per_name, roots = benchstats.self_times(spans)
        self.assertEqual(list(roots), [100, 60])
        root_ns = sum(roots)
        self.assertEqual(per_name[0], [2, (100 - 80) + (60 - 20), 0])
        self.assertEqual(per_name[1], [2, (30 - 10) + 20, 12])
        self.assertEqual(per_name[2], [2, 10 + 50, 16])
        total_self = sum(record[1] for record in per_name.values())
        self.assertEqual(total_self, root_ns)

    def test_reads_the_driver_span_layout(self):
        data = b"".join(struct.pack(benchstats.SPAN_FORMAT, *s) for s in [
            (5, 25, -1, 7, 0, 0, 0), (10, 20, 0, 7, 3, 4, 0)])
        spans = list(benchstats.read_spans(data))
        self.assertEqual(len(spans), 2)
        per_name, roots = benchstats.self_times(spans)
        self.assertEqual(list(roots), [20])
        self.assertEqual(per_name[4], [1, 10, 3])
        self.assertEqual(per_name[0], [1, 10, 0])


class FailureShare(unittest.TestCase):
    def test_share(self):
        self.assertEqual(benchstats.failure_share(200, 0), 0.0)
        self.assertEqual(benchstats.failure_share(200, 5), 0.025)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.failure_share(0, 0)


class Verdict(unittest.TestCase):
    OLD = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_clear_gain_is_better(self):
        new = [v * 1.05 for v in self.OLD]
        self.assertEqual(
            benchstats.judge(self.OLD, new, "higher", 0.1)["verdict"], "better")
        self.assertEqual(
            benchstats.judge(self.OLD, [v * 0.95 for v in self.OLD], "lower",
                             0.1)["verdict"], "better")

    def test_loss_beyond_the_bound_is_worse(self):
        new = [v * 0.8 for v in self.OLD]
        result = benchstats.judge(self.OLD, new, "higher", 0.1)
        self.assertEqual(result["verdict"], "worse")
        self.assertAlmostEqual(result["change"], -0.2, places=6)
        self.assertEqual(result["win_share"], 0.0)

    def test_noise_within_the_bound(self):
        new = list(reversed(self.OLD))
        self.assertEqual(
            benchstats.judge(self.OLD, new, "higher", 0.1)["verdict"],
            "within-bound")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        old = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        new = list(reversed(old))
        self.assertEqual(
            benchstats.judge(old, new, "higher", 0.1)["verdict"], "unresolved")

    def test_unequal_sides_are_refused(self):
        with self.assertRaises(ValueError):
            benchstats.judge([1.0], [1.0, 2.0], "lower", 0.1)


if __name__ == "__main__":
    unittest.main()
