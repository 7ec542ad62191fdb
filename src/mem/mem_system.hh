/**
 * @file
 * Memory-subsystem facade: TB + cache + write buffer + SBI + memory.
 *
 * Implements the cycle-level access protocol the EBOX and the I-Fetch
 * unit use:
 *
 *  - EBOX reads: dataRead() is called once, on the issuing
 *    microinstruction's cycle.  A cache hit returns Ok with data in the
 *    same cycle.  A miss starts an SBI fill and returns Stall; the EBOX
 *    then polls eboxReadDone() each (stalled) cycle and collects the
 *    data with takeEboxReadData().
 *  - EBOX writes: dataWrite() applies the write immediately when the
 *    write buffer is free (write-through); if the buffer is busy the
 *    translated write is queued, Stall is returned, and the EBOX polls
 *    eboxWriteDone().
 *  - IB fetches: ibFetch() probes the cache when the EBOX did not use
 *    the cache port this cycle; a miss queues an SBI fill (EBOX fills
 *    have priority) and the I-Fetch unit polls ibFillDone().
 *  - TB misses and unaligned references are reported as statuses; the
 *    EBOX microtraps into the memory-management microcode, which uses
 *    physRead()/insert() to service them.
 *
 * Call tick() exactly once per machine cycle, after the EBOX and
 * I-Fetch have taken their turns.
 */

#ifndef UPC780_MEM_MEM_SYSTEM_HH
#define UPC780_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/types.hh"
#include "mem/cache.hh"
#include "mem/mem_config.hh"
#include "mem/phys_mem.hh"
#include "mem/sbi.hh"
#include "mem/tb.hh"
#include "mem/write_buffer.hh"
#include "support/logging.hh"

namespace vax
{

namespace snap { class Serializer; class Deserializer; }

/** Status of an EBOX data-stream access. */
enum class MemStatus : uint8_t {
    Ok,              ///< completed this cycle (data valid for reads)
    Stall,           ///< in progress; poll the matching *Done()
    TbMiss,          ///< take the TB-miss microtrap
    Unaligned,       ///< take the alignment microtrap
    AccessViolation, ///< protection fault
};

struct MemResult
{
    MemStatus status;
    uint32_t data = 0;
};

/** Status of an IB fetch attempt. */
enum class IbStatus : uint8_t {
    Data,            ///< longword delivered this cycle
    Wait,            ///< fill pending or bus busy; retry/poll
    TbMiss,          ///< I-stream TB miss: set the flag, stop fetching
    AccessViolation,
};

struct IbResult
{
    IbStatus status;
    uint32_t data = 0;
};

class MemSystem
{
  public:
    explicit MemSystem(const MemConfig &cfg, uint64_t seed = 0x780);

    /** @{ EBOX D-stream access (see file comment for the protocol). */
    MemResult dataRead(VirtAddr va, unsigned bytes, CpuMode mode);
    MemResult dataWrite(VirtAddr va, uint32_t data, unsigned bytes,
                        CpuMode mode);
    bool eboxReadDone() const { return eboxReadReady_; }
    uint32_t takeEboxReadData();
    bool eboxWriteDone() const { return eboxWriteDone_; }
    void ackEboxWriteDone() { eboxWriteDone_ = false; }
    /** @} */

    /**
     * Physical longword read for the TB-miss microcode (PTE fetch).
     * Cacheable; same Ok/Stall protocol as dataRead.
     */
    MemResult physRead(PhysAddr pa);

    /**
     * Physical write (PCB save/restore microcode).  Same protocol as
     * dataWrite, without translation; pa must not cross a longword.
     */
    MemResult physWrite(PhysAddr pa, uint32_t data, unsigned bytes);

    /**
     * Register a callback fired after any processor write that lands
     * in [lo, hi] (Unibus-style device windows: monitor CSR, terminal
     * notify ports).
     */
    void addIoWriteHook(PhysAddr lo, PhysAddr hi,
                        std::function<void(PhysAddr, uint32_t)> fn);

    /** @{ I-stream fetch (aligned longword at va).  Inline hit path:
     *  a busy IB port, a TB miss or a cache miss leave early, and a
     *  cache miss starts its fill out of line. */
    IbResult
    ibFetch(VirtAddr va, CpuMode mode)
    {
        upc_assert((va & 3) == 0);

        if (ibFillActive_ || ibFillQueued_ || ibFillReady_)
            return {IbStatus::Wait};

        PhysAddr pa;
        TbResult tr = translate(va, false, mode, true, &pa);
        if (tr != TbResult::Hit) [[unlikely]]
            return {tr == TbResult::Miss ? IbStatus::TbMiss
                                         : IbStatus::AccessViolation};

        ++ibFetches_;
        if (cache_.readRef(pa, true)) [[likely]]
            return {IbStatus::Data, phys_.read(pa, 4)};
        startIbFill(pa);
        return {IbStatus::Wait};
    }
    bool ibFillDone() const { return ibFillReady_; }
    uint32_t takeIbFillData();
    /** @} */

    /** Translate without side effects beyond TB stats (PROBE, etc.). */
    TbResult probe(VirtAddr va, bool is_write, CpuMode mode,
                   PhysAddr *pa_out);

    /** Advance all timers one cycle; completes fills and writes.
     *  Inline because it runs every machine cycle: the write-buffer
     *  and bus countdowns are a decrement each, and only a completing
     *  fill, a queued write or an attached injector go out of line. */
    void
    tick()
    {
        eboxPortUsed_ = false;
        if (faults_ || eboxWritePending_) [[unlikely]] {
            tickSlow();
            return;
        }
        wb_.tick();
        if (sbi_.tick()) [[unlikely]]
            fillDone();
    }

    /** True if the EBOX used the cache port this cycle. */
    bool eboxPortUsed() const { return eboxPortUsed_; }

    /** @{ Component access for the OS, analyzer and tests. */
    PhysicalMemory &phys() { return phys_; }
    const PhysicalMemory &phys() const { return phys_; }
    TranslationBuffer &tb() { return tb_; }
    const TranslationBuffer &tb() const { return tb_; }
    Cache &cache() { return cache_; }
    const Cache &cache() const { return cache_; }
    const Sbi &sbi() const { return sbi_; }
    const WriteBuffer &writeBuffer() const { return wb_; }
    const MemConfig &config() const { return cfg_; }
    /** @} */

    /** Memory-mapping enable (MTPR MAPEN); on by default. */
    void setMapEnable(bool on) { mapEnable_ = on; }
    bool mapEnable() const { return mapEnable_; }

    /** @{ Fault injection: the injector exists only when the config
     *  enables a fault class, so the golden path stays untouched. */
    bool
    machineCheckPending() const
    {
        return faults_ && faults_->machineCheckPending();
    }
    McheckCause
    takeMachineCheck()
    {
        return faults_ ? faults_->takeMachineCheck()
                       : McheckCause::None;
    }
    const FaultInjector *faultInjector() const { return faults_.get(); }
    /** @} */

    /** @{ Aggregate counters for the implementation-events report. */
    uint64_t dataReads() const { return dataReads_; }
    uint64_t dataWrites() const { return dataWrites_; }
    uint64_t ibLongwordFetches() const { return ibFetches_; }
    /** @} */

    /** Register this subsystem (and every component) under prefix. */
    void regStats(stats::Registry &r, const std::string &prefix) const;

    /** @{ Checkpoint/restore of the whole memory subsystem: physical
     *  memory, cache, TB, write buffer, SBI, in-flight fill/write
     *  bookkeeping and the fault injector's schedule position.  IO
     *  write hooks are wiring (re-registered by the harness). */
    void save(snap::Serializer &s) const;
    void restore(snap::Deserializer &d);
    /** @} */

  private:
    enum class FillKind : uint8_t { None, Ebox, Ib };

    /** Check containment of a scalar access in one aligned longword. */
    static bool crossesLongword(VirtAddr va, unsigned bytes);

    /** tick() with an injector attached or a write queued behind the
     *  buffer: injector and drain timers, fill completion, queued-write
     *  drain. */
    void tickSlow();
    /** A fill transaction ended: install the block, hand the data to
     *  the requester, start any queued fill. */
    void fillDone();

    TbResult
    translate(VirtAddr va, bool is_write, CpuMode mode, bool istream,
              PhysAddr *pa_out)
    {
        if (!mapEnable_) {
            *pa_out = va;
            return TbResult::Hit;
        }
        return tb_.lookup(va, is_write, mode, istream, pa_out);
    }

    /** Start (or queue behind a busy bus) an IB fill of pa. */
    void startIbFill(PhysAddr pa);
    void startOrQueueEboxFill(PhysAddr pa, unsigned bytes);
    void maybeStartQueuedFill();
    void applyWrite(PhysAddr pa, uint32_t data, unsigned bytes);

    struct IoHook
    {
        PhysAddr lo;
        PhysAddr hi;
        std::function<void(PhysAddr, uint32_t)> fn;
    };
    std::vector<IoHook> ioHooks_;

    MemConfig cfg_;
    PhysicalMemory phys_;
    Cache cache_;
    TranslationBuffer tb_;
    WriteBuffer wb_;
    Sbi sbi_;
    std::unique_ptr<FaultInjector> faults_;
    bool mapEnable_ = true;

    // Active fill transaction.
    FillKind fill_ = FillKind::None;
    PhysAddr fillPa_ = 0;

    // EBOX read in flight (issued, waiting for fill).
    bool eboxReadActive_ = false;
    bool eboxReadQueued_ = false;  ///< waiting for the bus
    PhysAddr eboxReadPa_ = 0;
    unsigned eboxReadBytes_ = 0;
    bool eboxReadReady_ = false;
    uint32_t eboxReadData_ = 0;

    // EBOX write queued behind a busy write buffer.
    bool eboxWritePending_ = false;
    PhysAddr eboxWritePa_ = 0;
    uint32_t eboxWriteData_ = 0;
    unsigned eboxWriteBytes_ = 0;
    bool eboxWriteDone_ = false;

    // IB fill in flight or queued.
    bool ibFillActive_ = false;
    bool ibFillQueued_ = false;
    PhysAddr ibFillPa_ = 0;
    bool ibFillReady_ = false;
    uint32_t ibFillData_ = 0;

    bool eboxPortUsed_ = false;

    uint64_t dataReads_ = 0;
    uint64_t dataWrites_ = 0;
    uint64_t ibFetches_ = 0;
};

} // namespace vax

#endif // UPC780_MEM_MEM_SYSTEM_HH
