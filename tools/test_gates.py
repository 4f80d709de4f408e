#!/usr/bin/env python3
"""Decision rules of tools/ab.py and tools/regen_work_counts.py --check.

    python3 tools/test_gates.py

Standard-library unittest on synthetic samples; runs no benchmark.
"""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab  # noqa: E402
import regen_work_counts as counts  # noqa: E402

# Ten parent runs: median 100, quartiles 97.75 and 102.25.
PARENT = [96.0, 97.0, 98.0, 99.0, 100.0, 100.0, 101.0, 102.0, 103.0, 104.0]


def shifted(values, by):
    return [v + by for v in values]


class AbVerdict(unittest.TestCase):
    def test_worse_than_bound_and_outside_quartiles_fails(self):
        row = ab.compare(PARENT, shifted(PARENT, 30.0), "lower", 0.25)
        self.assertGreater(row["worse"], 0.25)
        self.assertFalse(row["ok"])
        self.assertEqual(row["won"], 0)

    def test_worse_inside_quartiles_passes(self):
        # Wide parent spread: a median 30 % worse still lies inside the
        # parent's quartiles, so the samples cannot tell.
        parent = [50.0, 60.0, 70.0, 90.0, 100.0, 100.0, 130.0, 150.0, 160.0, 170.0]
        change = [120.0, 125.0, 128.0, 129.0, 130.0, 130.0, 131.0, 132.0, 135.0, 140.0]
        row = ab.compare(parent, change, "lower", 0.25)
        self.assertGreater(row["worse"], 0.25)
        self.assertLessEqual(row["change"]["median"], row["parent"]["q3"])
        self.assertTrue(row["ok"])

    def test_worse_within_bound_passes(self):
        self.assertTrue(ab.compare(PARENT, shifted(PARENT, 10.0), "lower", 0.25)["ok"])

    def test_better_passes(self):
        row = ab.compare(PARENT, shifted(PARENT, -50.0), "lower", 0.25)
        self.assertLess(row["worse"], 0.0)
        self.assertTrue(row["ok"])
        self.assertEqual(row["won"], 10)

    def test_higher_is_better(self):
        lower = ab.compare(PARENT, shifted(PARENT, -30.0), "higher", 0.25)
        self.assertFalse(lower["ok"])
        self.assertEqual(lower["won"], 0)
        higher = ab.compare(PARENT, shifted(PARENT, 30.0), "higher", 0.25)
        self.assertTrue(higher["ok"])
        self.assertEqual(higher["won"], 10)

    def test_larger_share_of_failed_operations_fails(self):
        def runs(failed):
            return [{"attempted": 100, "failed": f} for f in failed]
        parent = runs([0] * 9 + [1])
        self.assertTrue(ab.more_failures(parent, runs([0] * 8 + [1, 1])))
        self.assertFalse(ab.more_failures(parent, runs([1] + [0] * 9)))
        self.assertFalse(ab.more_failures(parent, runs([0] * 10)))


class WorkCountCheck(unittest.TestCase):
    REFS = 2048.0

    def pinned(self, **workload):
        return {"tool_version": counts.STAMP, "workloads": {"timing": workload}}

    def setUp(self):
        self.base = {"gpu.events_per_ref": 114057.0 / self.REFS,
                     "gpu.allocs_per_ref": 3.7}
        self.doc = self.pinned(**self.base)

    def test_same_counts_pass(self):
        self.assertEqual(counts.check(self.doc, {"timing": dict(self.base)}), [])

    def test_count_off_by_one_fails(self):
        fresh = dict(self.base, **{"gpu.events_per_ref": 114058.0 / self.REFS})
        self.assertEqual(len(counts.check(self.doc, {"timing": fresh})), 1)

    def test_allocations_under_the_ceiling_pass(self):
        fresh = dict(self.base, **{"gpu.allocs_per_ref":
                                   3.7 + counts.ALLOC_HEADROOM * 0.99})
        self.assertEqual(counts.check(self.doc, {"timing": fresh}), [])
        fresh["gpu.allocs_per_ref"] = 2.0  # fewer is always within
        self.assertEqual(counts.check(self.doc, {"timing": fresh}), [])

    def test_allocations_over_the_ceiling_fail(self):
        fresh = dict(self.base, **{"gpu.allocs_per_ref":
                                   3.7 + counts.ALLOC_HEADROOM * 1.01})
        self.assertEqual(len(counts.check(self.doc, {"timing": fresh})), 1)

    def test_headroom_is_well_under_one_allocation_per_reference(self):
        self.assertLessEqual(counts.ALLOC_HEADROOM, 0.1)

    def test_missing_key_fails(self):
        fresh = {"gpu.allocs_per_ref": 3.7}
        self.assertEqual(len(counts.check(self.doc, {"timing": fresh})), 1)

    def test_extra_key_fails(self):
        fresh = dict(self.base, **{"tlb.walks_per_ref": 0.5})
        self.assertEqual(len(counts.check(self.doc, {"timing": fresh})), 1)

    def test_unpinned_workload_fails(self):
        measured = {"timing": dict(self.base), "replay": {"mem.x": 1.0}}
        self.assertEqual(len(counts.check(self.doc, measured)), 1)

    def test_wrong_stamp_fails(self):
        for stamp in (None, "hpe-work-counts/0"):
            doc = dict(self.doc, tool_version=stamp)
            self.assertEqual(len(counts.check(doc, {"timing": dict(self.base)})), 1)


if __name__ == "__main__":
    unittest.main()
