"""Comparison rules on synthetic sample sets.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
import compare  # noqa: E402


class VerdictTest(unittest.TestCase):
    # Ten steady parent runs: quartile spread about 1%.
    PARENT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]

    def test_median_worse_than_bound_is_flagged(self):
        change = [x * 1.15 for x in self.PARENT]
        self.assertEqual(
            compare.verdict(self.PARENT, change, 0.10, "lower"), "worse")

    def test_median_within_bound_is_unchanged(self):
        change = [x * 1.05 for x in self.PARENT]
        self.assertEqual(
            compare.verdict(self.PARENT, change, 0.10, "lower"),
            "unchanged")

    def test_higher_is_better_direction(self):
        change = [x * 0.85 for x in self.PARENT]
        self.assertEqual(
            compare.verdict(self.PARENT, change, 0.10, "higher"), "worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
        change = [x * 1.15 for x in noisy]
        # Not "worse" and, above all, not "unchanged": the noise hides
        # any shift the size of the bound.
        self.assertEqual(compare.verdict(noisy, change, 0.10, "lower"),
                         "unresolved")
        self.assertEqual(compare.verdict(noisy, noisy, 0.10, "lower"),
                         "unresolved")

    def test_clean_win_is_better_even_when_noisy(self):
        noisy = [1.7, 1.3, 1.8, 1.2, 1.6]
        change = [0.5, 0.6, 0.55, 0.62, 0.58]
        self.assertEqual(compare.verdict(noisy, change, 0.10, "lower"),
                         "better")

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(compare.spread([1, 2, 3, 4, 5]),
                               (4.5 - 1.5) / 3)


class ThroughputTest(unittest.TestCase):
    def test_wall_time_throughput(self):
        t = compare.Timing(2.0, "wall")
        self.assertEqual(compare.throughput(1000, t), 500.0)

    def test_cpu_time_throughput_is_rejected(self):
        # Four busy workers for 1 s of wall time: per-thread CPU time
        # reads ~1 s for the main thread even when the pool idles, and
        # process CPU time reads 4 s.  Neither is a rate a user sees.
        with self.assertRaises(ValueError):
            compare.throughput(1000, compare.Timing(1.0, "cpu"))

    def test_empty_interval_is_rejected(self):
        with self.assertRaises(ValueError):
            compare.throughput(1000, compare.Timing(0.0, "wall"))


if __name__ == "__main__":
    unittest.main()
