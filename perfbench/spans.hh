/**
 * @file
 * In-memory span recorder for the host-time benchmark.
 *
 * A span is one timed call into a simulator module: a name (the
 * layer prefix before the first '.' names the module), start and end
 * on the steady clock, the span that was open on the same thread when
 * it began (its parent), and the id of the job it belongs to.  Spans
 * stay in per-thread buffers until the run ends and are then written
 * out as Chrome trace-event JSON (the format writeChromeTrace uses).
 *
 * Recording is off unless setTracing(true) is called; an off span
 * costs one relaxed atomic load.  The first-simulated-cycle stamp is
 * kept regardless, because setup_s is an end-to-end metric.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Steady-clock nanoseconds (the clock every span and rep uses). */
int64_t nowNs();

/** Wall-clock (CLOCK_REALTIME) seconds, comparable across processes. */
double realtimeSeconds();

struct SpanRec
{
    const char *name = nullptr;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int64_t parent = -1; ///< global index after collect(), else local
    uint32_t lane = 0;   ///< recording thread, numbered from 0
    uint64_t job = 0;    ///< 0 = not inside a job
    uint64_t count = 0;  ///< layer-defined event count (cycles, bytes)
};

extern std::atomic<bool> gTracing;

inline bool
tracing()
{
    return gTracing.load(std::memory_order_relaxed);
}

void setTracing(bool on);

/** The calling thread's lane (trace tid - 1). */
uint32_t laneId();

/** Start a new job on the calling thread; later spans carry its id. */
void beginJob();
/** Leave the current job (spans after this carry job 0). */
void endJob();

/** RAII span; records nothing while tracing is off. */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach an event count (cycles simulated, bytes written). */
    void setCount(uint64_t n);

  private:
    int64_t index_ = -1;
};

/** Move every recorded span out of the per-thread buffers (call only
 *  when no other thread is recording), parents made global. */
std::vector<SpanRec> collect();

/** Write spans as Chrome trace-event JSON.  @return False on error. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanRec> &spans,
                      int64_t originNs);

/**
 * Cost of one span (two clock reads plus the buffer push) in ns,
 * measured on an empty loop with tracing on; leaves no spans behind.
 */
double calibrateSpanCostNs();

/** @{ First simulated cycle: the earliest entry into a simulation
 *  loop (Experiment::runChunk, Cpu780::run) since the last reset. */
void noteSimStart();
void resetSimStart();
int64_t simStartNs();       ///< 0 when no simulation has started
double simStartRealtime();  ///< same instant on CLOCK_REALTIME
/** @} */

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
