/**
 * @file
 * The three benchmark workloads.  Each rep is one closed-loop batch
 * run from this process (at most kWorkers threads or shards), timed
 * on the steady clock around the whole run, with its outputs checked.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

/** Worker threads or shards: the benchmark host's core count. */
constexpr unsigned kWorkers = 4;

struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/** One measured run of a workload. */
struct Rep
{
    int64_t t0Ns = 0;     ///< steady-clock start
    int64_t t1Ns = 0;     ///< steady-clock end
    double wallS = 0.0;   ///< t1 - t0
    double cpuS = 0.0;    ///< process CPU time spent in the rep
    double setupS = 0.0;  ///< start to first simulated cycle
    uint64_t instructions = 0; ///< retired, summed over all jobs
    uint64_t units = 0;        ///< jobs or uchar variants attempted
    uint64_t failedUnits = 0;  ///< units that failed or were wrong
    std::string digest;        ///< FNV-1a of the output dump
    /** Deterministic simulated counts (identical every rep). */
    std::map<std::string, double> counts;
    /** Host-side per-rep figures (pool shape, campaign protocol). */
    std::map<std::string, double> host;
    std::vector<Check> checks;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Untimed preparation (reference outputs, parsed baselines). */
    virtual void prepare() {}
    /** One rep; traced reps take the in-process path where the
     *  untraced one runs outside the process (campaign shards). */
    virtual Rep run(bool traced) = 0;
};

/**
 * @param root    Checkout root (reads UCHAR_baseline.json there).
 * @param scratch Directory for spools and dumps, created by the caller.
 * @return nullptr for an unknown workload name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed,
                                       const std::string &root,
                                       const std::string &scratch);

/**
 * Peak resident memory, in KiB, of one rep run in a fresh child
 * process: what a user running the workload once sees.  Counts the
 * child's own children (campaign shards).  -1 when the child fails.
 * Call while the process has no other threads.
 */
long freshRunPeakRssKb(Workload &w);

/** 64-bit FNV-1a as 16 hex digits (output digests). */
std::string fnv1a64(const std::string &data);

/** Campaign shard entry (the supervisor execs this binary with
 *  --shard).  Reports its first simulated cycle on stdout, which the
 *  supervisor points at the shard's log. */
int campaignShardMain(int argc, char **argv);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
