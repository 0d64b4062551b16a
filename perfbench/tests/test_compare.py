"""Tests of how perfbench/compare.py pairs the runs of two commits.

Run: python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import compare  # noqa: E402


class Pairing(unittest.TestCase):
    def test_pairs_runs_both_sides_made(self):
        old = {("huge-compile", 1): ("aa", {}), ("huge-compile", 2): ("aa", {})}
        new = {("huge-compile", 2): ("aa", {}), ("serve-cold", 2): ("bb", {})}
        self.assertEqual(compare.pair(old, new), [("huge-compile", 2)])

    def test_refuses_runs_on_different_inputs(self):
        old = {("serve-cold", 3): ("aa", {})}
        new = {("serve-cold", 3): ("ab", {})}
        with self.assertRaises(SystemExit):
            compare.pair(old, new)


if __name__ == "__main__":
    unittest.main()
