/**
 * @file
 * The 11/780 address translation buffer.
 *
 * 128 entries split into two 64-entry direct-mapped halves: one for
 * system-space (S0) addresses, one for process-space (P0/P1).
 * Translation (lookup) is done by hardware; on a miss the EBOX takes a
 * microtrap and the *microcode* fills the entry -- which is what makes
 * TB misses visible to the UPC histogram technique, unlike cache
 * misses.  LDPCTX invalidates the process half.
 */

#ifndef UPC780_MEM_TB_HH
#define UPC780_MEM_TB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/types.hh"
#include "mem/mem_config.hh"
#include "mem/page_table.hh"

namespace vax
{

namespace stats { class Registry; }
namespace snap { class Serializer; class Deserializer; }

class FaultInjector;

/** Outcome of a TB lookup. */
enum class TbResult : uint8_t {
    Hit,
    Miss,
    AccessViolation, ///< valid translation, insufficient privilege
};

/** TB statistics, split by stream as the paper reports them. */
struct TbStats
{
    uint64_t lookupsI = 0;
    uint64_t missesI = 0;
    uint64_t lookupsD = 0;
    uint64_t missesD = 0;
    uint64_t processFlushes = 0;

    /** Weighted accumulate (composite merges across simulations). */
    void
    accumulate(const TbStats &o, uint64_t w = 1)
    {
        lookupsI += o.lookupsI * w;
        missesI += o.missesI * w;
        lookupsD += o.lookupsD * w;
        missesD += o.missesD * w;
        processFlushes += o.processFlushes * w;
    }

    TbStats &
    operator+=(const TbStats &o)
    {
        accumulate(o);
        return *this;
    }

    /** Mirror every counter into the registry under prefix. */
    void regStats(stats::Registry &r, const std::string &prefix) const;

    /** @{ Checkpoint/restore. */
    void save(snap::Serializer &s) const;
    void restore(snap::Deserializer &d);
    /** @} */
};

class TranslationBuffer
{
  public:
    explicit TranslationBuffer(const MemConfig &cfg);

    /**
     * Translate a virtual address.
     *
     * @param va      Address to translate.
     * @param is_write True for write access (checks write permission).
     * @param mode    Current processor mode.
     * @param istream True for I-stream lookups (stats only).
     * @param pa_out  Receives the physical address on a hit.
     *
     * Inline hit path: it runs for every I-stream fetch and D-stream
     * reference.  Misses and an attached fault injector go out of
     * line.
     */
    TbResult
    lookup(VirtAddr va, bool is_write, CpuMode mode, bool istream,
           PhysAddr *pa_out, bool count_stats = true)
    {
        const Entry *e = entryFor(va);
        if (!e->valid || e->key != keyOf(va) || faults_) [[unlikely]]
            return lookupSlow(va, is_write, mode, istream, pa_out,
                              count_stats);
        if (count_stats) {
            if (istream)
                ++stats_.lookupsI;
            else
                ++stats_.lookupsD;
        }
        return resolve(*e, va, is_write, mode, pa_out);
    }

    /** Install a translation (called by the TB-miss microcode). */
    void insert(VirtAddr va, uint32_t pte_value);

    /** Invalidate both halves (MTPR TBIA). */
    void invalidateAll();

    /** Invalidate the process half (LDPCTX / context switch). */
    void invalidateProcess();

    /** Invalidate a single page's entry if present (MTPR TBIS). */
    void invalidateSingle(VirtAddr va);

    /** Attach a fault injector (null = fault-free operation). */
    void setFaultInjector(FaultInjector *fi) { faults_ = fi; }

    const TbStats &stats() const { return stats_; }

    /** Register stats and derived miss ratios under prefix. */
    void regStats(stats::Registry &r, const std::string &prefix) const;

    /** @{ Checkpoint/restore: both entry halves and the stats. */
    void save(snap::Serializer &s) const;
    void restore(snap::Deserializer &d);
    /** @} */

  private:
    struct Entry
    {
        bool valid = false;
        uint32_t key = 0; ///< region (2 bits) | VPN
        uint32_t pte = 0;
    };

    Entry *
    entryFor(VirtAddr va)
    {
        uint32_t vpn = vaVpn(va);
        if (vaRegion(va) == VaRegion::S0)
            return &system_[vpn & (system_.size() - 1)];
        return &process_[vpn & (process_.size() - 1)];
    }

    static uint32_t
    keyOf(VirtAddr va)
    {
        return (static_cast<uint32_t>(vaRegion(va)) << 21) | vaVpn(va);
    }

    /** Protection check and physical address of a matching entry. */
    static TbResult
    resolve(const Entry &e, VirtAddr va, bool is_write, CpuMode mode,
            PhysAddr *pa_out)
    {
        if (mode != CpuMode::Kernel) {
            bool allowed = is_write ? pte::userWrite(e.pte)
                                    : pte::userRead(e.pte);
            if (!allowed)
                return TbResult::AccessViolation;
        }
        *pa_out = (pte::pfn(e.pte) << pageShift) | vaOffset(va);
        return TbResult::Hit;
    }

    /** lookup() on a miss or with a fault injector attached. */
    TbResult lookupSlow(VirtAddr va, bool is_write, CpuMode mode,
                        bool istream, PhysAddr *pa_out, bool count_stats);

    std::vector<Entry> process_;
    std::vector<Entry> system_;
    TbStats stats_;
    FaultInjector *faults_ = nullptr;
};

} // namespace vax

#endif // UPC780_MEM_TB_HH
