"""Comparison rules for perfbench results.

Throughput is only ever computed from wall time: a rate divided by
the calling thread's (or process's) CPU time cannot see a slower pool
or a serialised phase, which is how a CPU-time-scored pool benchmark
reads multi-core rates at any wall time.

Two sample sets of one metric (the parent's runs and the change's)
compare as in the choosing-metrics method:

  better      every change run beats every parent run
  unresolved  the parent's run-to-run spread (IQR / median) is wider
              than the metric's bound, so a shift of the bound cannot
              be told from noise
  worse       the change's median is worse than the parent's by more
              than the bound
  unchanged   otherwise

Usage: python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
compares the *.result.json files run.py leaves in two directories.
"""

import glob
import json
import os
import statistics
import sys


class Timing:
    """A measured duration and the clock that measured it."""

    def __init__(self, seconds, clock):
        self.seconds = seconds
        self.clock = clock


def throughput(count, timing):
    """count per second of wall time; refuses any other clock."""
    if timing.clock != "wall":
        raise ValueError("throughput from %s time rejected: only wall "
                         "time sees waiting and idle workers"
                         % timing.clock)
    if timing.seconds <= 0:
        raise ValueError("throughput over a non-positive interval")
    return count / timing.seconds


def spread(samples):
    """Distance between the first and third quartile over the median."""
    if len(samples) < 2:
        return float("inf")
    q = statistics.quantiles(samples, n=4)
    return (q[2] - q[0]) / statistics.median(samples)


def verdict(parent, change, bound, better):
    """Classify change against parent for one metric (see module doc)."""
    lower = better == "lower"

    def beats(c, p):
        return c < p if lower else c > p

    if all(beats(c, p) for c in change for p in parent):
        return "better"
    if spread(parent) > bound:
        return "unresolved"
    pm = statistics.median(parent)
    cm = statistics.median(change)
    worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
    return "worse" if worse_by > bound else "unchanged"


def _load(directory):
    """{(workload, metric): [values]} from one directory of results."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory,
                                              "*.result.json"))):
        with open(path) as f:
            res = json.load(f)
        for name, m in res["metrics"].items():
            out.setdefault((res["workload"], name), []).append(m["value"])
    return out


def main(argv):
    if len(argv) != 3:
        print("usage: compare.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = _load(argv[1]), _load(argv[2])
    status = 0
    for metric in spec["end_to_end"]:
        for workload in [w["name"] for w in spec["workloads"]]:
            key = (workload, metric["name"])
            if key not in parent or key not in change:
                continue
            v = verdict(parent[key], change[key], metric["bound"],
                        metric["better"])
            print("%-16s %-12s parent %.6g change %.6g  %s" % (
                workload, metric["name"], statistics.median(parent[key]),
                statistics.median(change[key]), v))
            if v == "worse":
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
