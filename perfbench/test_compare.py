#!/usr/bin/env python3
"""Tests of the result diff in compare.py.

    python3 perfbench/test_compare.py

The fixtures are two sets of recorded end-to-end runs of one commit, ten
seeds per workload each, trimmed to the fields the diff reads.
"""

import copy
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402

FIXTURES = os.path.join(HERE, "fixtures")


def worsen(runs, workload, metric, better, by, reported=True, raw=True):
    """A copy of [runs] with one metric of one workload made worse by the
    share [by] in every run: in the reported value, the raw one, or both."""
    out = copy.deepcopy(runs)
    factor = 1 + by if better == "lower" else 1 - by
    for r in out:
        if r["workload"] == workload:
            if reported:
                r["result"]["metrics"][metric]["value"] *= factor
            if raw:
                r["measured"][metric] *= factor
    return out


class CompareTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = compare.load_spec()
        cls.a = compare.load_runs(os.path.join(FIXTURES, "rerun_a.jsonl"))
        cls.b = compare.load_runs(os.path.join(FIXTURES, "rerun_b.jsonl"))
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def verdicts(self, base, new):
        rows, _, _ = compare.compare(base, new, self.spec)
        return {(w, m): v for w, m, v, *_ in rows}

    def raw_verdicts(self, base, new):
        rows, _, _ = compare.compare(base, new, self.spec)
        return {(w, m): rv for w, m, _, _, _, _, rv, _ in rows}

    def test_fixtures_cover_every_workload_and_metric(self):
        for runs in (self.a, self.b):
            for raw in (False, True):
                grouped = compare.group(runs, raw=raw)
                for w in self.workloads:
                    for m in self.spec["end_to_end"]:
                        self.assertGreaterEqual(len(grouped[w][m["name"]]), 10,
                                                (w, m["name"], raw))

    def test_rerun_of_same_commit_is_quiet(self):
        verdicts = self.verdicts(self.a, self.b)
        self.assertEqual({v for v in verdicts.values()}, {"unchanged"}, verdicts)
        _, notes, _ = compare.compare(self.a, self.b, self.spec)
        self.assertEqual(notes, [])
        raw = self.raw_verdicts(self.a, self.b)
        self.assertNotIn("missing", raw.values())

    def test_ten_percent_worse_is_flagged(self):
        tight = [m for m in self.spec["end_to_end"] if m["bound"] < 0.10]
        self.assertTrue(tight, "no end-to-end metric has a bound below 10%")
        for m in tight:
            for w in self.workloads:
                worse = worsen(self.a, w, m["name"], m["better"], 0.10)
                verdicts = self.verdicts(self.a, worse)
                self.assertEqual(verdicts[(w, m["name"])], "worse", (w, m["name"]))
                others = {k: v for k, v in verdicts.items() if k != (w, m["name"])}
                self.assertEqual(set(others.values()), {"unchanged"})

    def test_worse_than_bound_is_flagged_on_every_metric(self):
        for m in self.spec["end_to_end"]:
            for w in self.workloads:
                values = compare.group(self.a)[w][m["name"]]
                by = min(0.9, 2 * m["bound"] + 2 * compare.spread(values))
                worse = worsen(self.a, w, m["name"], m["better"], by)
                self.assertEqual(self.verdicts(self.a, worse)[(w, m["name"])], "worse",
                                 (w, m["name"], by))

    def test_raw_change_hidden_by_scaling_is_listed(self):
        m = next(m for m in self.spec["end_to_end"] if m["name"] == "ops_per_s")
        for w in self.workloads:
            worse = worsen(self.a, w, m["name"], m["better"], 0.9, reported=False)
            rows, _, gaps = compare.compare(self.a, worse, self.spec)
            row = next(r for r in rows if r[:2] == (w, m["name"]))
            self.assertEqual((row[2], row[6]), ("unchanged", "worse"), w)
            self.assertEqual(gaps, [f"{w} ops_per_s: unchanged as reported, worse as measured"])

    def test_wide_spread_is_unresolved(self):
        m = next(m for m in self.spec["end_to_end"] if m["name"] == "ops_per_s")
        base = [10.0, 10.0, 10.0, 10.0]
        noisy = [6.0, 9.0, 11.0, 14.0]
        self.assertEqual(compare.verdict(base, noisy, m)[0], "unresolved")
        self.assertEqual(compare.verdict(base, [v * 2 for v in base], m)[0], "better")

    def test_spread_is_interquartile_range_over_median(self):
        self.assertAlmostEqual(compare.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                               (8.25 - 2.75) / 5.5)

    def test_other_host_is_refused(self):
        other = copy.deepcopy(self.b)
        for r in other:
            r["provenance"]["nproc"] = r["provenance"]["nproc"] + 2
        self.assertIsNotNone(compare.provenance_mismatch(self.a, other))
        self.assertIsNone(compare.provenance_mismatch(self.a, self.b))


if __name__ == "__main__":
    unittest.main()
