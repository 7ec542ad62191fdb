/**
 * @file
 * perfbench: run one benchmark workload for a fixed time and write
 * every sample as JSON (run.py turns the samples into metrics).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --root DIR --out FILE [--trace-file FILE]
 *
 * One rep in a forked child measures the fresh-process peak RSS, and
 * one discarded warm-up rep follows.  Untraced reps come next until
 * the time is spent (at least kMinReps).  With --trace 1, the untraced
 * reps get 40% of the time and traced reps the rest; the spans of the
 * traced reps go to --trace-file as Chrome trace-event JSON.
 *
 * When the campaign supervisor execs this binary with --shard, it
 * runs as a campaign shard instead.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "spans.hh"
#include "workloads.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace
{

constexpr unsigned kMinReps = 3;
constexpr unsigned kMinTracedReps = 2;

[[noreturn]] void
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 --root DIR --out FILE [--trace-file FILE]\n"
                 "workloads: composite_paper campaign_short uchar_suite\n",
                 prog);
    std::exit(2);
}

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            o += buf;
        } else {
            o += c;
        }
    }
    return o;
}

void
writeMap(std::FILE *f, const std::map<std::string, double> &m)
{
    std::fputc('{', f);
    bool first = true;
    for (const auto &[k, v] : m) {
        std::fprintf(f, "%s\"%s\":%.17g", first ? "" : ",", k.c_str(), v);
        first = false;
    }
    std::fputc('}', f);
}

void
writeRep(std::FILE *f, const Rep &r)
{
    std::fprintf(f,
                 "{\"t0_ns\":%lld,\"t1_ns\":%lld,\"wall_s\":%.9f,"
                 "\"cpu_s\":%.6f,\"setup_s\":%.9f,\"instructions\":%llu,"
                 "\"units\":%llu,\"failed_units\":%llu,\"digest\":\"%s\","
                 "\"counts\":",
                 static_cast<long long>(r.t0Ns),
                 static_cast<long long>(r.t1Ns), r.wallS, r.cpuS, r.setupS,
                 static_cast<unsigned long long>(r.instructions),
                 static_cast<unsigned long long>(r.units),
                 static_cast<unsigned long long>(r.failedUnits),
                 r.digest.c_str());
    writeMap(f, r.counts);
    std::fputs(",\"host\":", f);
    writeMap(f, r.host);
    std::fputs(",\"checks\":[", f);
    for (size_t i = 0; i < r.checks.size(); ++i)
        std::fprintf(f, "%s{\"name\":\"%s\",\"ok\":%s,\"detail\":\"%s\"}",
                     i ? "," : "", jsonEscape(r.checks[i].name).c_str(),
                     r.checks[i].ok ? "true" : "false",
                     jsonEscape(r.checks[i].detail).c_str());
    std::fputs("]}", f);
}

void
writeReps(std::FILE *f, const char *key, const std::vector<Rep> &reps)
{
    std::fprintf(f, ",\"%s\":[", key);
    for (size_t i = 0; i < reps.size(); ++i) {
        if (i)
            std::fputc(',', f);
        writeRep(f, reps[i]);
    }
    std::fputc(']', f);
}

std::string
loadavg()
{
    double l[3] = {0, 0, 0};
    if (getloadavg(l, 3) != 3)
        return "[]";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "[%.2f,%.2f,%.2f]", l[0], l[1], l[2]);
    return buf;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--shard") == 0)
        return campaignShardMain(argc, argv);

    std::string workload, root, out, traceFile;
    long long seed = -1;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoll(v.c_str(), &end, 10);
            if (*end || seed < 0)
                usage(argv[0]);
        } else if (a == "--seconds") {
            seconds = std::strtod(v.c_str(), &end);
            if (*end || !(seconds > 0.0))
                usage(argv[0]);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage(argv[0]);
            trace = v == "1";
        } else if (a == "--root") {
            root = v;
        } else if (a == "--out") {
            out = v;
        } else if (a == "--trace-file") {
            traceFile = v;
        } else {
            usage(argv[0]);
        }
    }
    if (workload.empty() || seed < 0 || trace < 0 || root.empty() ||
        out.empty() || (trace && traceFile.empty()))
        usage(argv[0]);

    std::string scratch = fs::path(out).parent_path().string() + "/work-" +
        workload + "-" + std::to_string(::getpid());
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    std::unique_ptr<Workload> w =
        makeWorkload(workload, static_cast<uint64_t>(seed), root, scratch);
    if (!w)
        usage(argv[0]);

    std::string load0 = loadavg();
    w->prepare();
    long peakRssKb = freshRunPeakRssKb(*w);
    if (peakRssKb < 0) {
        std::fprintf(stderr, "perfbench: the fresh-process rep failed\n");
        return 1;
    }
    Rep warm = w->run(false);

    int64_t start = nowNs();
    auto elapsed = [start] { return double(nowNs() - start) * 1e-9; };
    double untracedBudget = trace ? seconds * 0.4 : seconds;
    std::vector<Rep> reps, traced;
    while (reps.size() < kMinReps || elapsed() < untracedBudget)
        reps.push_back(w->run(false));

    double spanCost = 0.0;
    if (trace) {
        spanCost = calibrateSpanCostNs();
        setTracing(true);
        while (traced.size() < kMinTracedReps || elapsed() < seconds)
            traced.push_back(w->run(true));
        setTracing(false);
        std::vector<SpanRec> spans = collect();
        if (!writeChromeTrace(traceFile, spans, traced.front().t0Ns)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         traceFile.c_str());
            return 1;
        }
    }
    fs::remove_all(scratch);

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\"workload\":\"%s\",\"seed\":%lld,\"seconds\":%g,"
                 "\"context\":{\"nproc\":%u,\"workers\":%u,"
                 "\"loadavg_start\":%s,\"loadavg_end\":%s,"
                 "\"compiler\":\"%s\",\"build_type\":\"%s\"},"
                 "\"peak_rss_kb\":%ld,\"span_cost_ns\":%.3f,"
                 "\"origin_ns\":%lld,\"main_lane\":%u",
                 workload.c_str(), seed, seconds,
                 std::thread::hardware_concurrency(), kWorkers,
                 load0.c_str(), loadavg().c_str(),
                 jsonEscape("gcc " __VERSION__).c_str(),
                 PERFBENCH_BUILD_TYPE, peakRssKb, spanCost,
                 static_cast<long long>(traced.empty() ? 0
                                                       : traced.front().t0Ns),
                 laneId());
    writeReps(f, "warmup", {warm});
    writeReps(f, "untraced", reps);
    writeReps(f, "traced", traced);
    std::fputs("}\n", f);
    bool ok = std::fflush(f) == 0 && !std::ferror(f);
    ok = std::fclose(f) == 0 && ok;
    return ok ? 0 : 1;
}
