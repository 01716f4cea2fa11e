#!/usr/bin/env python3
"""Checks ci/ab.py's statistics and verdicts over canned runs in
ci/fixtures/, without building or running the benchmark.

Usage: python3 ci/test_ab.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


class Verdicts(unittest.TestCase):
    def test_quartiles_interpolate(self):
        self.assertEqual(ab.quartiles([1, 2, 3, 4, 5]), (2, 3, 4))
        self.assertEqual(ab.quartiles([4, 1, 3, 2]), (1.75, 2.5, 3.25))

    def test_a_separated_win_is_improved(self):
        v = ab.verdict([10, 11, 10.5, 10.2], [5, 5.1, 4.9, 5.2], 0.15, "lower")
        self.assertEqual((v["verdict"], v["won"]), ("improved", 4))

    def test_higher_is_better_flips_the_sign(self):
        v = ab.verdict([100, 101, 99, 100], [80, 81, 79, 80], 0.15, "higher")
        self.assertEqual(v["verdict"], "worse")

    def test_overlapping_wide_runs_are_unresolved(self):
        v = ab.verdict([1, 3, 1, 3], [3, 1, 3, 1], 0.15, "lower")
        self.assertEqual(v["verdict"], "unresolved")

    def test_wide_but_separated_runs_resolve(self):
        v = ab.verdict([10, 20, 10, 20], [50, 60, 50, 60], 0.15, "lower")
        self.assertEqual(v["verdict"], "worse")

    def test_a_small_move_is_flat(self):
        v = ab.verdict([10, 10.1, 9.9, 10], [10.05, 10, 10.1, 9.95], 0.15, "lower")
        self.assertEqual(v["verdict"], "flat")

    def test_eight_wins_of_ten_do_not_claim(self):
        base = [10.0] * 10
        change = [9.0] * 8 + [11.0] * 2
        self.assertEqual(ab.verdict(base, change, 0.5, "lower")["verdict"], "flat")


class Replay(unittest.TestCase):
    def replay(self, name):
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "ab.py"), "--replay",
             os.path.join(HERE, "fixtures", name)],
            capture_output=True, text=True,
        )

    def test_the_fixture_table(self):
        with open(os.path.join(HERE, "fixtures", "ab_runs.json")) as f:
            records = json.load(f)
        with contextlib.redirect_stdout(io.StringIO()):
            failures, rows = ab.report(records, [
                {"name": "scan_p50_ms", "better": "lower", "bound": 0.15},
                {"name": "index_p50_ms", "better": "lower", "bound": 0.25},
                {"name": "peak_rss_mib", "better": "lower", "bound": 0.2},
            ])
        self.assertEqual(failures, [])
        verdicts = {(w, m): v["verdict"] for w, m, v in rows}
        self.assertEqual(verdicts[("archive_cold", "scan_p50_ms")], "improved")
        self.assertEqual(verdicts[("archive_cold", "index_p50_ms")], "unresolved")
        self.assertEqual(verdicts[("archive_cold", "peak_rss_mib")], "worse")
        self.assertEqual(verdicts[("ward_warm", "scan_p50_ms")], "flat")

    def test_clean_runs_exit_zero(self):
        done = self.replay("ab_runs.json")
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertIn("improved", done.stdout)

    def test_an_incorrect_run_fails_the_command(self):
        done = self.replay("ab_incorrect.json")
        self.assertEqual(done.returncode, 1)
        self.assertIn("correct=False", done.stderr)


if __name__ == "__main__":
    unittest.main()
