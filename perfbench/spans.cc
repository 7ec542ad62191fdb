#include "spans.hh"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <memory>
#include <mutex>

namespace perfbench
{

std::atomic<bool> gTracing{false};

namespace
{

struct Lane
{
    uint32_t id = 0;
    uint64_t job = 0;
    std::vector<SpanRec> spans;
    std::vector<int64_t> open; ///< indices of the open spans, innermost last
};

std::mutex gLanesMutex;
std::vector<std::unique_ptr<Lane>> gLanes; // guarded by gLanesMutex
std::atomic<uint64_t> gNextJob{0};
thread_local Lane *tlLane = nullptr;

std::atomic<int64_t> gSimStartNs{0};
std::atomic<double> gSimStartRealtime{0.0};

Lane &
lane()
{
    if (!tlLane) {
        std::lock_guard<std::mutex> g(gLanesMutex);
        gLanes.push_back(std::make_unique<Lane>());
        tlLane = gLanes.back().get();
        tlLane->id = static_cast<uint32_t>(gLanes.size() - 1);
    }
    return *tlLane;
}

} // anonymous namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
realtimeSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_REALTIME, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

void
setTracing(bool on)
{
    gTracing.store(on, std::memory_order_relaxed);
}

uint32_t
laneId()
{
    return lane().id;
}

void
beginJob()
{
    lane().job = ++gNextJob;
}

void
endJob()
{
    lane().job = 0;
}

Span::Span(const char *name)
{
    if (!tracing())
        return;
    Lane &l = lane();
    SpanRec r;
    r.name = name;
    r.parent = l.open.empty() ? -1 : l.open.back();
    r.lane = l.id;
    r.job = l.job;
    index_ = static_cast<int64_t>(l.spans.size());
    l.spans.push_back(r);
    l.open.push_back(index_);
    l.spans.back().startNs = nowNs();
}

Span::~Span()
{
    if (index_ < 0)
        return;
    int64_t t = nowNs();
    Lane &l = *tlLane;
    l.spans[static_cast<size_t>(index_)].endNs = t;
    l.open.pop_back();
}

void
Span::setCount(uint64_t n)
{
    if (index_ >= 0)
        tlLane->spans[static_cast<size_t>(index_)].count = n;
}

std::vector<SpanRec>
collect()
{
    std::lock_guard<std::mutex> g(gLanesMutex);
    std::vector<SpanRec> out;
    for (auto &l : gLanes) {
        int64_t base = static_cast<int64_t>(out.size());
        for (SpanRec r : l->spans) {
            if (r.parent >= 0)
                r.parent += base;
            out.push_back(r);
        }
        l->spans.clear();
    }
    return out;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRec> &spans, int64_t originNs)
{
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRec &s = spans[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                     "\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                     "\"args\":{\"id\":%zu,\"parent\":%lld,"
                     "\"job\":%llu,\"count\":%llu}}%s\n",
                     s.name, double(s.startNs - originNs) * 1e-3,
                     double(s.endNs - s.startNs) * 1e-3, s.lane + 1, i,
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.job),
                     static_cast<unsigned long long>(s.count),
                     i + 1 < spans.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    bool ok = std::fflush(f) == 0 && !std::ferror(f);
    ok = std::fclose(f) == 0 && ok;
    return ok && std::rename(tmp.c_str(), path.c_str()) == 0;
}

double
calibrateSpanCostNs()
{
    constexpr size_t kSpans = 200000;
    bool was = tracing();
    setTracing(true);
    Lane &l = lane();
    size_t before = l.spans.size();
    l.spans.reserve(before + kSpans);
    int64_t t0 = nowNs();
    for (size_t i = 0; i < kSpans; ++i)
        Span s("bench.calibrate");
    int64_t t1 = nowNs();
    l.spans.resize(before);
    setTracing(was);
    return double(t1 - t0) / double(kSpans);
}

void
noteSimStart()
{
    if (gSimStartNs.load(std::memory_order_relaxed) != 0)
        return;
    int64_t t = nowNs();
    double rt = realtimeSeconds();
    int64_t zero = 0;
    if (gSimStartNs.compare_exchange_strong(zero, t))
        gSimStartRealtime.store(rt);
}

void
resetSimStart()
{
    gSimStartNs.store(0);
    gSimStartRealtime.store(0.0);
}

int64_t
simStartNs()
{
    return gSimStartNs.load();
}

double
simStartRealtime()
{
    return gSimStartRealtime.load();
}

} // namespace perfbench
