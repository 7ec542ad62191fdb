#!/usr/bin/env python3
"""Host-time benchmark for the upc780 simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the perfbench driver from source into
.bench_build/ (RelWithDebInfo, the repository's default), runs one
workload for S seconds, checks its outputs, and prints every metric by
name and unit.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list.  A result file with the host context (core count, load
average, compiler, build type, commit or source digest) is kept next
to the raw samples in .bench_build/results/.

--workload all runs the three in turn (one result block and JSON
line each).  Workloads (BENCHMARK.json says why each gated one exists):
  composite_paper  five-workload composite, 4M cycles per job, SimPool
  campaign_short   upc780_campaign fleet of short checkpointed jobs
  uchar_suite      the full characterization corpus vs UCHAR_baseline.json
                   (not in BENCHMARK.json: on a shared host its wall
                   time swings with memory bandwidth; see README.md)
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("composite_paper", "campaign_short", "uchar_suite")
BUILD_TIMEOUT_S = 840

sys.path.insert(0, HERE)
import compare  # noqa: E402
import layers  # noqa: E402


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found under %s/src" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "perfbench"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError("build step %s failed: %s" % (cmd[:2], e))
        if rc != 0:
            raise BenchError("build step %s exited %d" % (cmd[:2], rc))


def run_driver(cmd, timeout):
    """Run the driver in its own process group, so a timeout also stops
    the campaign shards it forked.  Returns the exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log("workload run timed out after %d s" % timeout)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


def host_context(raw):
    ctx = dict(raw["context"])
    try:
        ctx["commit"] = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        ctx["commit"] = None
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    ctx["source_digest"] = h.hexdigest()[:16]
    return ctx


def high_percentile(values):
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None, None
    ordered = sorted(values)
    k = n - 11
    return 100.0 * (k + 1) / n, ordered[k]


def end_to_end(raw, reps):
    walls = [r["wall_s"] for r in reps]
    return {
        "wall_s": statistics.median(walls),
        "sim_kips": statistics.median(
            compare.throughput(r["instructions"],
                               compare.Timing(r["wall_s"], "wall")) / 1e3
            for r in reps),
        "jobs_per_s": statistics.median(
            compare.throughput(r["units"],
                               compare.Timing(r["wall_s"], "wall"))
            for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(raw, reps, traced, trace_path, checks):
    spans = layers.load_spans(trace_path)
    cost = raw["span_cost_ns"]
    origin = raw["origin_ns"]
    windows = [(r["t0_ns"] - origin, r["t1_ns"] - origin) for r in traced]
    m = layers.layer_metrics(spans, cost, len(traced))
    ok, gap, resid = layers.rohl_check(spans, windows, cost,
                                       raw["main_lane"])
    checks.append(("layer self times + gaps == traced wall (main gap "
                   "<= %.1f%%, nesting residual <= %.1f%%)"
                   % (100 * layers.MAX_MAIN_GAP,
                      100 * layers.MAX_NESTING_RESIDUAL),
                   ok, "gap %.4f residual %.5f" % (gap, resid)))
    m.update(traced[0]["counts"])
    # Host-side figures: the fleet's (untraced) where only it has them,
    # the traced reps' otherwise.
    for group in (reps, traced):
        for key in group[0]["host"]:
            m[key] = statistics.median(r["host"][key] for r in group)
    m["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                             - statistics.median(r["wall_s"] for r in reps))
    m["trace.span_cost_ns"] = cost
    m["trace.main_gap_frac"] = gap
    return m


def evaluate(raw, seed, trace_path):
    """(metrics, checks, attempted, failed) from the driver's samples."""
    warm, reps, traced = raw["warmup"][0], raw["untraced"], raw["traced"]
    checks = []
    for name in dict.fromkeys(c["name"] for c in warm["checks"]):
        bad = [c["detail"] for r in [warm] + reps + traced
               for c in r["checks"] if c["name"] == name and not c["ok"]]
        checks.append((name + " (every rep)", not bad,
                       bad[0] if bad else ""))
    differ = layers.counts_identical([warm] + reps, traced)
    checks.append(("simulated counts and digest identical in every rep, "
                   "traced and untraced", not differ, ", ".join(differ)))
    if raw["workload"] == "composite_paper":
        with open(os.path.join(HERE, "digests.json")) as f:
            want = json.load(f)["composite_paper"].get(str(seed))
        if want is not None:
            checks.append(("stats digest equals the committed one for seed "
                           "%d" % seed, reps[0]["digest"] == want,
                           "%s vs %s" % (reps[0]["digest"], want)))
    checks.append(("first simulated cycle observed in every rep",
                   all(r["setup_s"] > 0 for r in reps + traced), ""))

    metrics = end_to_end(raw, reps)
    if traced:
        metrics.update(per_layer(raw, reps, traced, trace_path, checks))

    # A unit fails when it failed to run or its rep's outputs failed a
    # check; a check over the whole run taints every unit.
    measured = reps + traced
    attempted = sum(r["units"] for r in measured)
    failed = sum(r["units"] if not all(c["ok"] for c in r["checks"])
                 else r["failed_units"] for r in measured)
    if not all(ok for _, ok, _ in checks):
        failed = attempted
    return metrics, checks, attempted, failed


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        build()
    except BenchError as e:
        log(str(e))
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(w, args, spec) for w in workloads)


def run_workload(workload, args, spec):
    """Run, check and report one workload.  Returns the exit code."""
    tag = "%s-s%d-t%d" % (workload, args.seed, args.trace)
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    raw_path = os.path.join(results, tag + ".samples.json")
    trace_path = os.path.join(results, tag + ".trace.json")
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", raw_path]
    if args.trace:
        cmd += ["--trace-file", trace_path]
    # A run takes --seconds plus a few reps; a hung one is stopped well
    # inside three minutes.
    rc = run_driver(cmd, 2 * args.seconds + 30)
    if rc != 0:
        log("workload run exited %d" % rc)
        return 1
    with open(raw_path) as f:
        raw = json.load(f)

    metrics, checks, attempted, failed = evaluate(raw, args.seed,
                                                  trace_path)
    # A layer a workload never enters reads 0 (no calls, no events);
    # every end-to-end metric must have been measured.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {m["name"]: {"value": (metrics.get(m["name"], 0.0) if args.trace
                                 else metrics[m["name"]]),
                       "unit": m["unit"]} for m in wanted}
    correct = all(ok for _, ok, _ in checks) and failed == 0

    n = len(raw["untraced"])
    walls = [r["wall_s"] for r in raw["untraced"]]
    pct, pval = high_percentile(walls)
    print("%s seed %d: %d untraced reps after 1 warm-up, %d traced, "
          "%d workers on %d cores" % (
              workload, args.seed, n, len(raw["traced"]),
              raw["context"]["workers"], raw["context"]["nproc"]))
    if pct is not None:
        print("  wall_s p%.0f = %.6f s (n=%d)" % (pct, pval, n))
    for name, m in out.items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-34s %14.6g %s" % ("failed_frac",
                                  failed / attempted if attempted else 1.0,
                                  "ratio"))
    if "cpi_err_vs_paper" in raw["untraced"][0]["counts"]:
        print("  %-34s %14.6g %s (held-back Table 8 total %.3f)" % (
            "cpi_err_vs_paper",
            raw["untraced"][0]["counts"]["cpi_err_vs_paper"], "ratio",
            10.593))
    for name, ok, detail in checks:
        print("  check %-4s %s%s" % ("ok" if ok else "FAIL", name,
                                     (": " + detail) if detail else ""))

    result = {"workload": workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "context": host_context(raw), "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": out,
              "trace_file": trace_path if args.trace else None}
    with open(os.path.join(results, tag + ".result.json"), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0



if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
