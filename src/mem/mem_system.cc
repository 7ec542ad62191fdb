#include "mem/mem_system.hh"

#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace vax
{

MemSystem::MemSystem(const MemConfig &cfg, uint64_t seed)
    : cfg_(cfg), phys_(cfg.memBytes), cache_(cfg, seed), tb_(cfg)
{
    // Constructed only when a fault class is enabled: a null injector
    // keeps the golden path free of extra RNG draws and stats.
    if (cfg_.faults.enabled()) {
        faults_ = std::make_unique<FaultInjector>(cfg_.faults, seed);
        cache_.setFaultInjector(faults_.get());
        tb_.setFaultInjector(faults_.get());
        sbi_.setFaultInjector(faults_.get());
    }
}

void
MemSystem::regStats(stats::Registry &r,
                    const std::string &prefix) const
{
    r.addScalar(prefix + ".dataReads",
                "EBOX D-stream read operations", &dataReads_);
    r.addScalar(prefix + ".dataWrites",
                "EBOX D-stream write operations", &dataWrites_);
    r.addScalar(prefix + ".ibLongwordFetches",
                "aligned longword fetches into the IB", &ibFetches_);
    cache_.regStats(r, prefix + ".cache");
    tb_.regStats(r, prefix + ".tb");
    wb_.regStats(r, prefix + ".wbuf");
    sbi_.regStats(r, prefix + ".sbi");
}

bool
MemSystem::crossesLongword(VirtAddr va, unsigned bytes)
{
    return (va & 3) + bytes > 4;
}

MemResult
MemSystem::dataRead(VirtAddr va, unsigned bytes, CpuMode mode)
{
    upc_assert(!eboxReadActive_ && !eboxReadQueued_ && !eboxReadReady_);
    upc_assert(bytes >= 1 && bytes <= 4);

    if (crossesLongword(va, bytes))
        return {MemStatus::Unaligned};

    PhysAddr pa;
    TbResult tr = translate(va, false, mode, false, &pa);
    if (tr == TbResult::Miss)
        return {MemStatus::TbMiss};
    if (tr == TbResult::AccessViolation)
        return {MemStatus::AccessViolation};

    eboxPortUsed_ = true;
    ++dataReads_;
    if (cache_.readRef(pa, false))
        return {MemStatus::Ok, phys_.read(pa, bytes)};

    startOrQueueEboxFill(pa, bytes);
    return {MemStatus::Stall};
}

MemResult
MemSystem::physRead(PhysAddr pa)
{
    upc_assert(!eboxReadActive_ && !eboxReadQueued_ && !eboxReadReady_);
    // Symmetric with physWrite: a physical longword access that
    // straddles a cache-block boundary would silently attribute the
    // miss to the wrong block, so it is a microcode bug.
    upc_assert(!crossesLongword(pa, 4));
    eboxPortUsed_ = true;
    ++dataReads_;
    if (cache_.readRef(pa, false))
        return {MemStatus::Ok, phys_.read(pa, 4)};
    startOrQueueEboxFill(pa, 4);
    return {MemStatus::Stall};
}

void
MemSystem::startOrQueueEboxFill(PhysAddr pa, unsigned bytes)
{
    eboxReadPa_ = pa;
    eboxReadBytes_ = bytes;
    if (fill_ == FillKind::None) {
        fill_ = FillKind::Ebox;
        fillPa_ = pa;
        // +1 so that after this cycle's tick() the requester stalls for
        // exactly readMissPenalty cycles in the simplest case.
        sbi_.start(cfg_.readMissPenalty + 1);
        eboxReadActive_ = true;
        TRACE(Sbi, "ebox fill start pa=%06x",
              static_cast<unsigned>(pa));
    } else {
        eboxReadQueued_ = true;
        TRACE(Mem, "ebox fill queued behind busy bus pa=%06x",
              static_cast<unsigned>(pa));
    }
}

uint32_t
MemSystem::takeEboxReadData()
{
    upc_assert(eboxReadReady_);
    eboxReadReady_ = false;
    return eboxReadData_;
}

MemResult
MemSystem::dataWrite(VirtAddr va, uint32_t data, unsigned bytes,
                     CpuMode mode)
{
    upc_assert(bytes >= 1 && bytes <= 4);
    upc_assert(!eboxWritePending_ && !eboxWriteDone_);

    if (crossesLongword(va, bytes))
        return {MemStatus::Unaligned};

    PhysAddr pa;
    TbResult tr = translate(va, true, mode, false, &pa);
    if (tr == TbResult::Miss)
        return {MemStatus::TbMiss};
    if (tr == TbResult::AccessViolation)
        return {MemStatus::AccessViolation};

    eboxPortUsed_ = true;
    ++dataWrites_;
    if (!wb_.busy()) {
        applyWrite(pa, data, bytes);
        return {MemStatus::Ok};
    }
    TRACE(Mem, "write stall va=%08x (buffer draining)", va);
    eboxWritePending_ = true;
    eboxWritePa_ = pa;
    eboxWriteData_ = data;
    eboxWriteBytes_ = bytes;
    return {MemStatus::Stall};
}

MemResult
MemSystem::physWrite(PhysAddr pa, uint32_t data, unsigned bytes)
{
    upc_assert(bytes >= 1 && bytes <= 4);
    upc_assert(!eboxWritePending_ && !eboxWriteDone_);
    upc_assert(!crossesLongword(pa, bytes));

    eboxPortUsed_ = true;
    ++dataWrites_;
    if (!wb_.busy()) {
        applyWrite(pa, data, bytes);
        return {MemStatus::Ok};
    }
    eboxWritePending_ = true;
    eboxWritePa_ = pa;
    eboxWriteData_ = data;
    eboxWriteBytes_ = bytes;
    return {MemStatus::Stall};
}

void
MemSystem::applyWrite(PhysAddr pa, uint32_t data, unsigned bytes)
{
    phys_.write(pa, data, bytes);
    cache_.writeRef(pa);
    wb_.accept(cfg_.writeDrainCycles);
    for (const auto &h : ioHooks_)
        if (pa >= h.lo && pa <= h.hi)
            h.fn(pa, data);
}

void
MemSystem::addIoWriteHook(PhysAddr lo, PhysAddr hi,
                          std::function<void(PhysAddr, uint32_t)> fn)
{
    ioHooks_.push_back({lo, hi, std::move(fn)});
}

void
MemSystem::startIbFill(PhysAddr pa)
{
    ibFillPa_ = pa;
    if (fill_ == FillKind::None) {
        fill_ = FillKind::Ib;
        fillPa_ = pa;
        sbi_.start(cfg_.ibFillPenalty + 1);
        ibFillActive_ = true;
        TRACE(Sbi, "ib fill start pa=%06x", static_cast<unsigned>(pa));
    } else {
        ibFillQueued_ = true;
        TRACE(Mem, "ib fill queued behind busy bus pa=%06x",
              static_cast<unsigned>(pa));
    }
}

uint32_t
MemSystem::takeIbFillData()
{
    upc_assert(ibFillReady_);
    ibFillReady_ = false;
    return ibFillData_;
}

TbResult
MemSystem::probe(VirtAddr va, bool is_write, CpuMode mode,
                 PhysAddr *pa_out)
{
    if (!mapEnable_) {
        *pa_out = va;
        return TbResult::Hit;
    }
    return tb_.lookup(va, is_write, mode, false, pa_out, false);
}

void
MemSystem::maybeStartQueuedFill()
{
    if (fill_ != FillKind::None)
        return;
    // EBOX has priority over the instruction buffer.
    if (eboxReadQueued_) {
        eboxReadQueued_ = false;
        eboxReadActive_ = true;
        fill_ = FillKind::Ebox;
        fillPa_ = eboxReadPa_;
        sbi_.start(cfg_.readMissPenalty + 1);
    } else if (ibFillQueued_) {
        ibFillQueued_ = false;
        ibFillActive_ = true;
        fill_ = FillKind::Ib;
        fillPa_ = ibFillPa_;
        sbi_.start(cfg_.ibFillPenalty + 1);
    }
}

void
MemSystem::tickSlow()
{
    if (faults_)
        faults_->tick();
    wb_.tick();
    if (sbi_.tick())
        fillDone();

    // Apply a queued write once the buffer frees.
    if (eboxWritePending_ && !wb_.busy()) {
        applyWrite(eboxWritePa_, eboxWriteData_, eboxWriteBytes_);
        eboxWritePending_ = false;
        eboxWriteDone_ = true;
    }
}

void
MemSystem::fillDone()
{
    TRACE(Sbi, "%s fill done pa=%06x",
          fill_ == FillKind::Ebox ? "ebox" : "ib",
          static_cast<unsigned>(fillPa_));
    cache_.fill(fillPa_);
    if (fill_ == FillKind::Ebox) {
        upc_assert(eboxReadActive_);
        eboxReadActive_ = false;
        eboxReadReady_ = true;
        eboxReadData_ = phys_.read(eboxReadPa_, eboxReadBytes_);
    } else if (fill_ == FillKind::Ib) {
        upc_assert(ibFillActive_);
        ibFillActive_ = false;
        ibFillReady_ = true;
        ibFillData_ = phys_.read(ibFillPa_, 4);
    }
    fill_ = FillKind::None;
    maybeStartQueuedFill();
}

} // namespace vax
