#include "workloads.hh"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "cpu/cpu.hh"
#include "driver/campaign.hh"
#include "driver/checkpoint.hh"
#include "driver/sim_pool.hh"
#include "spans.hh"
#include "support/stats.hh"
#include "upc/analyzer.hh"
#include "upc/selfcheck.hh"
#include "upc/ucharacterize.hh"
#include "workload/experiments.hh"
#include "workload/profile.hh"
#include "workload/uchar_corpus.hh"

namespace fs = std::filesystem;

namespace perfbench
{

std::string
fnv1a64(const std::string &data)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

namespace
{

using namespace vax;

/** The paper's Table 8 total, cycles per average instruction: data
 *  held back from tuning the workload profiles. */
constexpr double kPaperCpi = 10.593;

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

double
ratio(uint64_t num, uint64_t den)
{
    return den ? double(num) / double(den) : 0.0;
}

/** Time from the rep's start to its first simulated cycle. */
double
setupSeconds(int64_t t0)
{
    int64_t s = simStartNs();
    return s > t0 ? double(s - t0) * 1e-9 : 0.0;
}

void
finish(Rep &r, double cpu0)
{
    r.t1Ns = nowNs();
    r.wallS = double(r.t1Ns - r.t0Ns) * 1e-9;
    r.cpuS = cpuSeconds() - cpu0;
}

/** The deterministic simulated counts of a composite. */
void
compositeCounts(const CompositeResult &comp,
                const HistogramAnalyzer &an, Rep &r)
{
    const HwTotals &hw = comp.hw;
    uint64_t col[static_cast<size_t>(TimeCol::NumCols)] = {};
    for (size_t row = 0; row < static_cast<size_t>(Row::NumRows); ++row)
        for (size_t c = 0; c < static_cast<size_t>(TimeCol::NumCols);
             ++c)
            col[c] += an.cellCycles(static_cast<Row>(row),
                                    static_cast<TimeCol>(c));
    auto &m = r.counts;
    m["cpu.cycles"] = double(hw.counters.cycles);
    m["cpu.instructions"] = double(hw.counters.instructions);
    m["cpu.ib_stall_cycles"] =
        double(col[static_cast<size_t>(TimeCol::IbStall)]);
    m["cpu.ib_longword_fetches"] = double(hw.ibLongwordFetches);
    m["cpu.microtraps"] = double(hw.counters.microTraps);
    m["cpu.interrupts"] = double(hw.counters.interrupts);
    m["cpu.context_switches"] = double(hw.counters.contextSwitches);
    m["mem.cache_read_miss_ratio_i"] =
        ratio(hw.cache.readMissesI, hw.cache.readRefsI);
    m["mem.cache_read_miss_ratio_d"] =
        ratio(hw.cache.readMissesD, hw.cache.readRefsD);
    m["mem.cache_write_hit_ratio"] =
        ratio(hw.cache.writeHits, hw.cache.writeRefs);
    m["mem.tb_miss_ratio"] =
        ratio(hw.tb.missesI + hw.tb.missesD,
              hw.tb.lookupsI + hw.tb.lookupsD);
    m["mem.read_stall_cycles"] =
        double(col[static_cast<size_t>(TimeCol::RStall)]);
    m["mem.write_stall_cycles"] =
        double(col[static_cast<size_t>(TimeCol::WStall)]);
    m["upc.monitor_cycles"] = double(an.totalCycles());
    m["workload.rte_lines_in"] = double(hw.terminalLinesIn);
    m["os.disk_transfers"] = double(hw.diskTransfers);
    double cpi = an.cyclesPerInstruction();
    m["cpi"] = cpi;
    m["cpi_err_vs_paper"] = std::fabs(cpi - kPaperCpi) / kPaperCpi;
}

/** The composite stats-JSON dump, digested. */
void
statsDigest(const CompositeResult &comp, Rep &r)
{
    Span s("support.stats_dump");
    stats::Registry reg;
    registerCompositeStats(reg, comp);
    r.digest = fnv1a64(reg.dumpJson());
}

/**
 * Table 8 analysis, the accounting self-check and the stats dump: what
 * table8_timing and full_report do after the pool finishes.
 */
void
analyzeComposite(const CompositeResult &comp,
                 const std::vector<SimJob> &jobs, Rep &r)
{
    std::unique_ptr<Cpu780> ref;
    std::unique_ptr<HistogramAnalyzer> an;
    {
        Span s("upc.analyze");
        ref = std::make_unique<Cpu780>();
        an = std::make_unique<HistogramAnalyzer>(ref->controlStore(),
                                                 comp.hist);
        double table = 0.0;
        for (size_t row = 0; row < static_cast<size_t>(Row::NumRows);
             ++row)
            for (size_t c = 0;
                 c < static_cast<size_t>(TimeCol::NumCols); ++c)
                table += an->cell(static_cast<Row>(row),
                                  static_cast<TimeCol>(c));
        double cpi = an->cyclesPerInstruction();
        r.checks.push_back({"Table 8 cells sum to the composite CPI",
                            std::fabs(table - cpi) <= 1e-9 * cpi,
                            std::to_string(table) + " vs " +
                                std::to_string(cpi)});
    }
    {
        Span s("upc.selfcheck");
        std::vector<uint64_t> weights;
        for (const SimJob &j : jobs)
            weights.push_back(j.weight);
        SelfCheckReport sc =
            selfCheckComposite(ref->controlStore(), comp, weights);
        r.checks.push_back({"selfCheckComposite", sc.ok(),
                            sc.ok() ? "" : sc.summary()});
    }
    statsDigest(comp, r);
    compositeCounts(comp, *an, r);
}

void
countParts(const CompositeResult &comp, Rep &r)
{
    r.units = comp.parts.size();
    for (const ExperimentResult &p : comp.parts) {
        r.instructions += p.hw.counters.instructions;
        if (p.failed || p.interrupted)
            ++r.failedUnits;
    }
}

// ======================= composite_paper =======================

/**
 * The five-workload composite at the paper's 4M cycles per experiment
 * on SimPool, then Table 8, selfCheckComposite and the stats dump.
 * The seed shifts every job's machine seed (the cache's random
 * replacement stream) by the campaign replica stride; the workload
 * profiles keep the paper's seeds, so every seed runs the paper's
 * five workloads (seed 0 is exactly compositeJobs()).  Shifting the
 * profile seeds instead moved wall_s by ~10% between seeds, which
 * would swamp the run-to-run spread the bounds are set against.
 */
class CompositePaper : public Workload
{
  public:
    explicit CompositePaper(uint64_t seed)
    {
        for (const WorkloadProfile &prof : allProfiles()) {
            SimJob job = SimJob::forProfile(prof, kCycles);
            job.sim.seed += 7919ull * seed;
            jobs_.push_back(job);
        }
    }

    Rep
    run(bool) override
    {
        Rep r;
        resetSimStart();
        double cpu0 = cpuSeconds();
        r.t0Ns = nowNs();
        CompositeResult comp;
        {
            Span s("driver.pool_run");
            comp = SimPool(kWorkers).runComposite(jobs_);
        }
        analyzeComposite(comp, jobs_, r);
        finish(r, cpu0);
        r.setupS = setupSeconds(r.t0Ns);
        countParts(comp, r);

        PoolTelemetry tele = computeTelemetry(comp.parts);
        double sum = 0.0, longest = 0.0;
        for (const ExperimentResult &p : comp.parts) {
            sum += p.wallSeconds;
            longest = std::max(longest, p.wallSeconds);
        }
        r.host["driver.pool_makespan_ratio"] =
            sum > 0.0 ? tele.wallSeconds / (sum / kWorkers) : 0.0;
        r.host["driver.job_wall_s_max"] = longest;
        return r;
    }

  private:
    static constexpr uint64_t kCycles = 4'000'000;
    std::vector<SimJob> jobs_;
};

// ======================= campaign_short =======================

/**
 * The upc780_campaign fleet: kWorkers shard processes, replicas x five
 * workloads of short jobs (setup outweighs simulation) checkpointed
 * every kInterval cycles.  The shards' job list is fixed by the tool's
 * flags, none of which is a seed, so the seed varies the per-job cycle
 * budget, by at most 0.5%.
 */
class CampaignShort : public Workload
{
  public:
    CampaignShort(uint64_t seed, std::string scratch)
        : scratch_(std::move(scratch))
    {
        cfg_.shards = kWorkers;
        cfg_.cycles = kCycles + 64 * (seed % 32);
        cfg_.replicas = kReplicas;
        cfg_.intervalCycles = kInterval;
        jobs_ = campaignJobs(cfg_);
    }

    /** The --in-process reference, in a child so its machines leave
     *  nothing behind in this process's heap (the fresh-process peak
     *  RSS forks from here). */
    void
    prepare() override
    {
        CampaignConfig ref = cfg_;
        ref.spool = scratch_ + "/reference";
        ref.inProcess = true;
        ref.statsJsonPath = scratch_ + "/reference.stats.json";
        std::fflush(nullptr);
        pid_t pid = ::fork();
        if (pid == 0) {
            int null = ::open("/dev/null", O_WRONLY);
            if (null >= 0)
                ::dup2(null, 1);
            ::_exit(runCampaignSupervisor(ref));
        }
        int status = 0;
        if (pid < 0 || ::waitpid(pid, &status, 0) != pid ||
            !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            std::fprintf(stderr, "perfbench: in-process campaign "
                                 "reference failed\n");
            std::exit(1);
        }
        refDigest_ = fnv1a64(readFile(ref.statsJsonPath));
        fs::remove_all(ref.spool);
        ref_ = std::make_unique<Cpu780>();
    }

    Rep
    run(bool traced) override
    {
        CampaignConfig cfg = cfg_;
        cfg.spool = scratch_ + "/spool" + std::to_string(++reps_);
        cfg.statsJsonPath = cfg.spool + ".stats.json";
        Rep r = traced ? runInProcess(cfg) : runFleet(cfg);
        r.checks.push_back({"stats digest equals --in-process reference",
                            r.digest == refDigest_,
                            r.digest + " vs " + refDigest_});
        if (r.digest != refDigest_)
            r.failedUnits = r.units;
        fs::remove_all(cfg.spool);
        fs::remove(cfg.statsJsonPath);
        return r;
    }

  private:
    Rep
    runFleet(const CampaignConfig &cfg)
    {
        Rep r;
        double cpu0 = cpuSeconds();
        double rt0 = realtimeSeconds();
        r.t0Ns = nowNs();
        int rc = runCampaignSupervisor(cfg);
        finish(r, cpu0);
        r.checks.push_back({"campaign exit code 0", rc == 0,
                            std::to_string(rc)});

        // Each shard logs when it first simulated.
        double first = 0.0;
        for (unsigned s = 0; s < cfg.shards; ++s) {
            std::istringstream log(readFile(campaignLogPath(cfg, s)));
            std::string line;
            double t = 0.0;
            while (std::getline(log, line))
                if (std::sscanf(line.c_str(),
                                "perfbench-shard first_sim_realtime=%lf",
                                &t) == 1 &&
                    t > 0.0 && (first == 0.0 || t < first))
                    first = t;
        }
        r.setupS = first > rt0 ? first - rt0 : 0.0;
        r.digest = fnv1a64(readFile(cfg.statsJsonPath));

        CompositeResult comp = merge(readResults(cfg));
        countParts(comp, r);
        double retries = 0.0;
        for (const ExperimentResult &p : comp.parts)
            retries += p.retries;
        r.host["driver.campaign.retries"] = retries;
        HistogramAnalyzer an(ref_->controlStore(), comp.hist);
        compositeCounts(comp, an, r);
        return r;
    }

    /**
     * The traced form: the same job list and spool protocol driven by
     * kWorkers threads of this process, so every call the shards make
     * (claim, Experiment, runChunk, saveFile, heartbeat, result
     * write) can be timed.
     */
    Rep
    runInProcess(const CampaignConfig &cfg)
    {
        CheckpointConfig ck;
        ck.dir = cfg.spool;
        ck.intervalCycles = cfg.intervalCycles;
        Rep r;
        double cpu0 = cpuSeconds();
        r.t0Ns = nowNs();
        resetSimStart();
        std::vector<ExperimentResult> parts(jobs_.size());
        std::atomic<uint64_t> attempts{0}, won{0}, beats{0};
        {
            Span s("driver.campaign_run");
            ensureCheckpointDir(ck);
            for (const char *sub : {"todo", "claimed", "hb"})
                fs::create_directories(cfg.spool + "/" + sub);
            for (size_t i = 0; i < jobs_.size(); ++i)
                writeJobTokenFile(campaignTodoPath(cfg, i), JobToken());
            std::vector<std::thread> shards;
            for (unsigned w = 0; w < cfg.shards; ++w)
                shards.emplace_back([&, w] {
                    shardLoop(cfg, ck, w, parts, attempts, won, beats);
                });
            for (std::thread &t : shards)
                t.join();
        }
        CompositeResult comp = merge(std::move(parts));
        statsDigest(comp, r);
        finish(r, cpu0);
        r.setupS = setupSeconds(r.t0Ns);
        countParts(comp, r);
        HistogramAnalyzer an(ref_->controlStore(), comp.hist);
        compositeCounts(comp, an, r);
        r.host["driver.campaign.claim_won_ratio"] =
            ratio(won.load(), attempts.load());
        r.host["driver.campaign.heartbeats"] = double(beats.load());
        return r;
    }

    void
    shardLoop(const CampaignConfig &cfg, const CheckpointConfig &ck,
              unsigned w, std::vector<ExperimentResult> &parts,
              std::atomic<uint64_t> &attempts,
              std::atomic<uint64_t> &won, std::atomic<uint64_t> &beats)
    {
        std::string hb = campaignHeartbeatPath(cfg, w);
        uint64_t seq = 0;
        double lastBeat = 0.0;
        // As a shard does: skip tokens already gone, claim the rest
        // by rename, beat when a job starts and then at most twice
        // per heartbeat interval.
        auto beat = [&](size_t i, bool force) {
            double now = campaignWallNow();
            if (!force && now - lastBeat < cfg.heartbeatInterval * 0.5)
                return;
            Span s("driver.campaign.heartbeat");
            heartbeatWrite(hb, static_cast<long>(::getpid()), ++seq,
                           static_cast<long>(i));
            lastBeat = now;
            ++beats;
        };
        for (size_t i = 0; i < jobs_.size(); ++i) {
            std::string todo = campaignTodoPath(cfg, i);
            if (!fileExists(todo))
                continue;
            std::string claim = campaignClaimPath(cfg, i, w);
            ClaimOutcome got;
            {
                Span s("driver.campaign.claim");
                got = claimByRename(todo, claim);
            }
            ++attempts;
            if (got != ClaimOutcome::Won)
                continue;
            ++won;
            beat(i, true);
            const SimJob &job = jobs_[i];
            std::string cpath = checkpointPath(ck, i, job.profile.name);
            Experiment exp(job.profile, job.cycles, job.sim, job.vms,
                           job.limits);
            while (!exp.runChunk(ck.intervalCycles)) {
                exp.saveFile(cpath);
                beat(i, false);
            }
            ExperimentResult res = exp.takeResult();
            res.worker = w;
            {
                Span s("driver.result_write");
                writeResultFile(resultPath(ck, i, job.profile.name),
                                res);
            }
            ::unlink(claim.c_str());
            parts[i] = std::move(res);
            endJob();
        }
    }

    /** The fleet's finished jobs, read back from the spool. */
    std::vector<ExperimentResult>
    readResults(const CampaignConfig &cfg)
    {
        CheckpointConfig ck;
        ck.dir = cfg.spool;
        std::vector<ExperimentResult> parts(jobs_.size());
        for (size_t i = 0; i < jobs_.size(); ++i)
            if (!readResultFile(resultPath(ck, i, jobs_[i].profile.name),
                                &parts[i]))
                parts[i].failed = true;
        return parts;
    }

    /** Weighted composite of the surviving parts, in job order. */
    CompositeResult
    merge(std::vector<ExperimentResult> parts)
    {
        CompositeResult comp;
        for (size_t i = 0; i < parts.size(); ++i) {
            if (!parts[i].failed) {
                comp.hist.merge(parts[i].hist, jobs_[i].weight);
                comp.hw.add(parts[i].hw, jobs_[i].weight);
            }
            comp.parts.push_back(std::move(parts[i]));
        }
        return comp;
    }

    static constexpr uint64_t kCycles = 400'000;
    static constexpr uint64_t kInterval = 100'000;
    static constexpr unsigned kReplicas = 4;
    std::string scratch_;
    CampaignConfig cfg_;
    std::vector<SimJob> jobs_;
    std::string refDigest_;
    std::unique_ptr<Cpu780> ref_;
    unsigned reps_ = 0;
};

// ======================= uchar_suite =======================

/**
 * The full runUcharSuite corpus on bare machines, compared with zero
 * tolerance against the committed UCHAR_baseline.json.  The corpus is
 * fixed; the seed permutes the order variants are handed to workers
 * (the report is stored by index, so it must not change).
 */
class UcharSuite : public Workload
{
  public:
    UcharSuite(uint64_t seed, std::string root)
        : seed_(seed), root_(std::move(root))
    {
    }

    void
    prepare() override
    {
        std::string path = root_ + "/UCHAR_baseline.json";
        std::string err;
        if (!ucharParseJson(readFile(path), &baseline_, &err)) {
            std::fprintf(stderr, "perfbench: cannot read %s: %s\n",
                         path.c_str(), err.c_str());
            std::exit(1);
        }
    }

    Rep
    run(bool) override
    {
        Rep r;
        SimPool pool(kWorkers);
        ParallelFor pf = [&](size_t n,
                             const std::function<void(size_t)> &fn) {
            std::vector<size_t> order(n);
            for (size_t i = 0; i < n; ++i)
                order[i] = i;
            std::mt19937_64 rng(seed_);
            std::shuffle(order.begin(), order.end(), rng);
            // The corpus is enumerated and the calibration machine has
            // run: setup ends when the first variant simulates.
            resetSimStart();
            pool.forEach(n, [&](size_t i) { fn(order[i]); });
        };
        double cpu0 = cpuSeconds();
        r.t0Ns = nowNs();
        UcharReport rep;
        {
            Span s("workload.uchar_suite");
            rep = runUcharSuite(UcharParams(), pf);
        }
        UcharDiff diff;
        {
            Span s("upc.uchar_compare");
            diff = ucharCompare(baseline_, rep);
        }
        finish(r, cpu0);
        r.setupS = setupSeconds(r.t0Ns);
        r.checks.push_back(
            {"ucharCompare against UCHAR_baseline.json", diff.ok(),
             diff.ok() ? "" : diff.messages.front()});
        r.units = rep.rows.size() + rep.skipped.size();
        r.failedUnits = std::min<uint64_t>(diff.messages.size(), r.units);
        r.digest = fnv1a64(ucharJson(rep));

        uint64_t cycles = rep.calibration.cycles;
        uint64_t instr = rep.calibration.instructions;
        uint64_t col[kCols] = {};
        for (const UcharRow &row : rep.rows) {
            cycles += row.run.cycles;
            instr += row.run.instructions;
            for (size_t c = 0; c < kCols; ++c)
                col[c] += row.run.cols[c];
        }
        r.instructions = instr;
        auto &m = r.counts;
        m["cpu.cycles"] = double(cycles);
        m["cpu.instructions"] = double(instr);
        m["cpu.ib_stall_cycles"] =
            double(col[static_cast<size_t>(TimeCol::IbStall)]);
        m["mem.read_stall_cycles"] =
            double(col[static_cast<size_t>(TimeCol::RStall)]);
        m["mem.write_stall_cycles"] =
            double(col[static_cast<size_t>(TimeCol::WStall)]);
        m["upc.monitor_cycles"] = double(cycles);
        m["uchar.rows"] = double(rep.rows.size());
        m["uchar.skipped"] = double(rep.skipped.size());
        return r;
    }

  private:
    static constexpr size_t kCols = static_cast<size_t>(TimeCol::NumCols);
    uint64_t seed_;
    std::string root_;
    UcharReport baseline_;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed,
             const std::string &root, const std::string &scratch)
{
    if (name == "composite_paper")
        return std::make_unique<CompositePaper>(seed);
    if (name == "campaign_short")
        return std::make_unique<CampaignShort>(seed, scratch);
    if (name == "uchar_suite")
        return std::make_unique<UcharSuite>(seed, root);
    return nullptr;
}

long
freshRunPeakRssKb(Workload &w)
{
    std::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid == 0) {
        w.run(false);
        std::fflush(nullptr);
        ::_exit(0);
    }
    int status = 0;
    rusage ru{};
    if (pid < 0 || ::wait4(pid, &status, 0, &ru) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return -1;
    return ru.ru_maxrss;
}

int
campaignShardMain(int argc, char **argv)
{
    vax::CampaignConfig cfg = vax::CampaignConfig::parseFlags(&argc, argv);
    int rc = vax::runCampaignShard(cfg);
    std::printf("perfbench-shard first_sim_realtime=%.6f\n",
                simStartRealtime());
    std::fflush(stdout);
    return rc;
}

} // namespace perfbench
