"""Span accounting (self time, Röhl-style sum check, count identity)
on synthetic traces, plus the same checks on a real traced run when
the driver has been built.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, ".."))
import layers  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))
BINARY = os.path.join(ROOT, ".bench_build", "perfbench")


def span(i, name, start, dur, lane=0, parent=-1, job=0, count=0):
    return {"id": i, "name": name, "start": start, "dur": dur,
            "lane": lane, "parent": parent, "job": job, "count": count}


class SelfTimeTest(unittest.TestCase):
    def test_children_and_their_recording_cost_are_subtracted(self):
        spans = [span(0, "driver.pool_run", 0, 1000),
                 span(1, "cpu.run_chunk", 100, 300, parent=0),
                 span(2, "cpu.run_chunk", 500, 200, parent=0)]
        selfs = layers.self_times(spans, cost_ns=10)
        self.assertEqual(selfs[0], 1000 - 500 - 2 * 10)
        self.assertEqual(selfs[1], 300)

    def test_layer_metrics_per_call_and_per_job(self):
        spans = [span(0, "workload.experiment_ctor", 0, 4e6, job=1),
                 span(1, "workload.codegen", 0, 1e6, parent=0, job=1,
                      count=100),
                 span(2, "workload.codegen", 1e6, 2e6, parent=0, job=1,
                      count=50),
                 span(3, "cpu.run_chunk", 4e6, 1e6, job=1, count=1000)]
        m = layers.layer_metrics(spans, cost_ns=0, nreps=1)
        self.assertAlmostEqual(m["workload.codegen_ms_per_job"], 3.0)
        self.assertEqual(m["workload.image_bytes"], 150)
        self.assertAlmostEqual(m["cpu.host_ns_per_cycle"], 1000.0)
        self.assertAlmostEqual(m["workload.self_ms"], 4.0)
        self.assertEqual(m["os.boot_ms"], 0.0)


class RohlCheckTest(unittest.TestCase):
    def test_nested_spans_covering_the_rep_pass(self):
        spans = [span(0, "driver.pool_run", 0, 990),
                 span(1, "upc.analyze", 990, 10),
                 span(2, "cpu.run_chunk", 5, 900, lane=1)]
        ok, gap, resid = layers.rohl_check(spans, [(0, 1000)], 0, 0)
        self.assertTrue(ok)
        self.assertEqual(gap, 0.0)
        self.assertEqual(resid, 0.0)

    def test_uncovered_main_thread_time_fails(self):
        spans = [span(0, "driver.pool_run", 0, 900)]
        ok, gap, _ = layers.rohl_check(spans, [(0, 1000)], 0, 0)
        self.assertFalse(ok)
        self.assertAlmostEqual(gap, 0.1)

    def test_child_outliving_its_parent_fails(self):
        spans = [span(0, "driver.pool_run", 0, 1000),
                 span(1, "cpu.run_chunk", 500, 600, parent=0)]
        ok, _, resid = layers.rohl_check(spans, [(0, 1000)], 0, 0)
        self.assertFalse(ok)
        self.assertGreater(resid, layers.MAX_NESTING_RESIDUAL)

    def test_missing_main_thread_fails(self):
        spans = [span(0, "cpu.run_chunk", 0, 1000, lane=3)]
        ok, gap, _ = layers.rohl_check(spans, [(0, 1000)], 0, 0)
        self.assertFalse(ok)
        self.assertEqual(gap, 1.0)


class CountIdentityTest(unittest.TestCase):
    def rep(self, cycles, digest="d"):
        return {"digest": digest, "counts": {"cpu.cycles": cycles}}

    def test_identical_counts_pass(self):
        self.assertEqual(layers.counts_identical(
            [self.rep(10), self.rep(10)], [self.rep(10)]), [])

    def test_traced_count_drift_is_named(self):
        self.assertEqual(layers.counts_identical(
            [self.rep(10)], [self.rep(11)]), ["cpu.cycles"])

    def test_digest_drift_is_named(self):
        self.assertEqual(layers.counts_identical(
            [self.rep(10)], [self.rep(10, "e")]), ["digest"])


@unittest.skipUnless(os.access(BINARY, os.X_OK),
                     "perfbench driver not built (run perfbench/run.py)")
class TracedRunTest(unittest.TestCase):
    """A short real traced composite: layer self times and gaps must
    add up to each rep's wall time, and every simulated count must
    equal the untraced run's."""

    def test_traced_composite(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(
                ROOT, ".bench_build")) as tmp:
            out = os.path.join(tmp, "samples.json")
            trace = os.path.join(tmp, "trace.json")
            subprocess.run([BINARY, "--workload", "composite_paper",
                            "--seed", "0", "--seconds", "1", "--trace",
                            "1", "--root", ROOT, "--out", out,
                            "--trace-file", trace],
                           check=True, stdout=subprocess.DEVNULL,
                           timeout=170)
            with open(out) as f:
                raw = json.load(f)
            spans = layers.load_spans(trace)
        origin = raw["origin_ns"]
        windows = [(r["t0_ns"] - origin, r["t1_ns"] - origin)
                   for r in raw["traced"]]
        ok, gap, resid = layers.rohl_check(spans, windows,
                                           raw["span_cost_ns"],
                                           raw["main_lane"])
        self.assertTrue(ok, "main gap %.4f residual %.5f" % (gap, resid))
        self.assertEqual(layers.counts_identical(raw["untraced"],
                                                 raw["traced"]), [])
        names = {s["name"] for s in spans}
        for want in ("ucode.rom_build", "mem.phys_alloc",
                     "workload.experiment_ctor", "workload.codegen",
                     "os.boot", "cpu.run_chunk", "upc.analyze",
                     "upc.selfcheck", "support.stats_dump",
                     "driver.pool_run"):
            self.assertIn(want, names)


if __name__ == "__main__":
    unittest.main()
