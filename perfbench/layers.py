"""Per-layer numbers from a perfbench span trace.

A span file is Chrome trace-event JSON: one complete ("X") event per
timed call, with ts/dur in microseconds and args id/parent/job/count.
The layer is the span name up to its first '.'.

Self time is a span's duration minus the time its child spans cover,
less the harness cost of recording those children (measured on an
empty loop, nanoBench-style).  The Röhl-style check: on every thread
the self times, the recording cost and the uncovered gaps add up to
each traced rep's measured wall time, and on the main thread the
uncovered gap is a small share of it -- the layers account for the
time the rep took.
"""

import json
import statistics

LAYERS = ("ucode", "mem", "cpu", "os", "workload", "upc", "driver",
          "support")

# Share of a rep's wall time the main thread may leave uncovered.
MAX_MAIN_GAP = 0.02
# Share of a rep's wall time by which a thread's self times may miss
# the span time they partition (timestamp rounding, bad nesting).
MAX_NESTING_RESIDUAL = 0.005


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for e in events:
        a = e["args"]
        spans.append({
            "name": e["name"], "start": e["ts"] * 1e3,
            "dur": e["dur"] * 1e3, "lane": e["tid"] - 1,
            "id": a["id"], "parent": a["parent"], "job": a["job"],
            "count": a["count"],
        })
    return spans


def self_times(spans, cost_ns):
    """Self time in ns per span id: duration minus child durations and
    the recording cost of each child."""
    child_dur = {}
    child_n = {}
    for s in spans:
        p = s["parent"]
        if p >= 0:
            child_dur[p] = child_dur.get(p, 0.0) + s["dur"]
            child_n[p] = child_n.get(p, 0) + 1
    return {s["id"]: s["dur"] - child_dur.get(s["id"], 0.0)
            - cost_ns * child_n.get(s["id"], 0) for s in spans}


def _union(spans, t0, t1):
    """Length of the union of the spans' intervals within [t0, t1]."""
    total = 0.0
    end = t0
    for s in sorted(spans, key=lambda s: s["start"]):
        a = max(s["start"], end)
        b = min(s["start"] + s["dur"], t1)
        if b > a:
            total += b - a
            end = b
    return total


def rohl_check(spans, reps, cost_ns, main_lane):
    """Per traced rep and thread: self + recording cost + gap == wall.

    reps are (t0_ns, t1_ns) windows on the span clock.  Returns
    (ok, worst main-thread gap share, worst nesting residual share).
    """
    selfs = self_times(spans, cost_ns)
    worst_gap = 0.0
    worst_resid = 0.0
    for t0, t1 in reps:
        wall = t1 - t0
        inside = [s for s in spans if t0 <= s["start"] <= t1]
        for lane in {s["lane"] for s in inside}:
            mine = {s["id"]: s for s in inside if s["lane"] == lane}
            roots = [s for s in mine.values() if s["parent"] not in mine]
            kids = [s for s in mine.values() if s["parent"] in mine]
            covered = _union(roots, t0, t1)
            attributed = (sum(selfs[i] for i in mine)
                          + cost_ns * len(kids))
            # Time a child spends outside its parent is time the sum
            # would count twice.
            outside = 0.0
            for s in kids:
                p = mine[s["parent"]]
                outside += max(0.0, p["start"] - s["start"])
                outside += max(0.0, s["start"] + s["dur"]
                               - p["start"] - p["dur"])
            negative = sum(-selfs[i] for i in mine if selfs[i] < 0)
            gap = wall - covered
            resid = (abs(attributed + gap - wall) + outside + negative) / wall
            worst_resid = max(worst_resid, resid)
            if lane == main_lane:
                worst_gap = max(worst_gap, gap / wall)
        if main_lane not in {s["lane"] for s in inside}:
            worst_gap = 1.0
    ok = worst_gap <= MAX_MAIN_GAP and worst_resid <= MAX_NESTING_RESIDUAL
    return ok, worst_gap, worst_resid


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def layer_metrics(spans, cost_ns, nreps):
    """Per-layer host-time numbers (ms unless named otherwise)."""
    selfs = self_times(spans, cost_ns)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def per_call_ms(name):
        return _median([s["dur"] * 1e-6 for s in by_name.get(name, [])])

    def median_count(name):
        return _median([s["count"] for s in by_name.get(name, [])])

    m = {}
    for layer in LAYERS:
        total = sum(v for s in spans for v in [selfs[s["id"]]]
                    if s["name"].split(".")[0] == layer)
        m[layer + ".self_ms"] = total * 1e-6 / nreps

    m["ucode.rom_build_ms"] = per_call_ms("ucode.rom_build")
    m["ucode.rom_words"] = median_count("ucode.rom_build")
    m["mem.phys_alloc_ms"] = per_call_ms("mem.phys_alloc")
    m["os.boot_ms"] = per_call_ms("os.boot")
    m["workload.experiment_ctor_ms"] = per_call_ms(
        "workload.experiment_ctor")

    jobs = {s["job"] for s in by_name.get("workload.experiment_ctor", [])}
    gen_ms = {j: 0.0 for j in jobs}
    gen_bytes = {j: 0 for j in jobs}
    for s in by_name.get("workload.codegen", []):
        gen_ms[s["job"]] = gen_ms.get(s["job"], 0.0) + s["dur"] * 1e-6
        gen_bytes[s["job"]] = gen_bytes.get(s["job"], 0) + s["count"]
    m["workload.codegen_ms_per_job"] = _median(list(gen_ms.values()))
    m["workload.image_bytes"] = _median(list(gen_bytes.values()))

    sim = by_name.get("cpu.run_chunk", []) + by_name.get("cpu.run", [])
    cycles = sum(s["count"] for s in sim)
    m["cpu.host_ns_per_cycle"] = (sum(s["dur"] for s in sim) / cycles
                                  if cycles else 0.0)

    m["upc.analyze_ms"] = per_call_ms("upc.analyze")
    m["upc.selfcheck_ms"] = per_call_ms("upc.selfcheck")
    m["support.stats_dump_ms"] = per_call_ms("support.stats_dump")
    m["driver.checkpoint_save_ms"] = per_call_ms("driver.checkpoint_save")
    m["driver.checkpoint_bytes"] = median_count("driver.checkpoint_save")
    m["driver.result_write_ms"] = per_call_ms("driver.result_write")
    m["driver.campaign.claim_ms"] = per_call_ms("driver.campaign.claim")
    m["driver.campaign.heartbeat_ms"] = per_call_ms(
        "driver.campaign.heartbeat")
    m["trace.spans_per_rep"] = len(spans) / nreps
    return m


def counts_identical(untraced, traced):
    """Names of simulated counts (and the output digest) that differ
    between any rep and the first untraced one; empty when identical."""
    ref = untraced[0]
    bad = set()
    for rep in untraced + traced:
        if rep["digest"] != ref["digest"]:
            bad.add("digest")
        keys = set(rep["counts"]) | set(ref["counts"])
        bad.update(k for k in keys
                   if rep["counts"].get(k) != ref["counts"].get(k))
    return sorted(bad)
