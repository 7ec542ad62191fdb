/**
 * @file
 * Checkpoint/restore for the memory subsystem: physical memory (RLE,
 * since an 8 MB image is mostly zeros), cache tags, TB entries, write
 * buffer, SBI, the in-flight fill/write bookkeeping and the fault
 * injector's schedule position.
 *
 * MemSystem::save owns the section structure; leaf components write
 * raw fields.  Geometry (sizes, ways, entry counts) is configuration,
 * not state: it is written as a fingerprint and verified on restore so
 * a snapshot cannot silently restore into a differently-shaped
 * machine.
 */

#include "mem/mem_system.hh"

#include "support/snapshot.hh"

namespace vax
{

// ====================== CacheStats ======================

void
CacheStats::save(snap::Serializer &s) const
{
    s.putU64(readRefsI);
    s.putU64(readMissesI);
    s.putU64(readRefsD);
    s.putU64(readMissesD);
    s.putU64(writeRefs);
    s.putU64(writeHits);
}

void
CacheStats::restore(snap::Deserializer &d)
{
    readRefsI = d.getU64();
    readMissesI = d.getU64();
    readRefsD = d.getU64();
    readMissesD = d.getU64();
    writeRefs = d.getU64();
    writeHits = d.getU64();
}

// ====================== Cache ======================

void
Cache::save(snap::Serializer &s) const
{
    s.putU32(sets_);
    s.putU32(ways_);
    s.putU32(blockBytes_);
    for (const Line &l : lines_) {
        s.putBool(l.valid);
        s.putU32(l.tag);
    }
    stats_.save(s);
    s.putU64(rng_.state());
    s.putU32(parityErrors_);
    s.putBool(disabled_);
}

void
Cache::restore(snap::Deserializer &d)
{
    d.expectU32(sets_, "cache sets");
    d.expectU32(ways_, "cache ways");
    d.expectU32(blockBytes_, "cache block bytes");
    for (Line &l : lines_) {
        l.valid = d.getBool();
        l.tag = d.getU32();
    }
    stats_.restore(d);
    rng_.setState(d.getU64());
    parityErrors_ = d.getU32();
    disabled_ = d.getBool();
}

// ====================== TbStats ======================

void
TbStats::save(snap::Serializer &s) const
{
    s.putU64(lookupsI);
    s.putU64(missesI);
    s.putU64(lookupsD);
    s.putU64(missesD);
    s.putU64(processFlushes);
}

void
TbStats::restore(snap::Deserializer &d)
{
    lookupsI = d.getU64();
    missesI = d.getU64();
    lookupsD = d.getU64();
    missesD = d.getU64();
    processFlushes = d.getU64();
}

// ====================== TranslationBuffer ======================

void
TranslationBuffer::save(snap::Serializer &s) const
{
    auto putHalf = [&](const std::vector<Entry> &half) {
        s.putU32(static_cast<uint32_t>(half.size()));
        for (const Entry &e : half) {
            s.putBool(e.valid);
            s.putU32(e.key);
            s.putU32(e.pte);
        }
    };
    putHalf(process_);
    putHalf(system_);
    stats_.save(s);
}

void
TranslationBuffer::restore(snap::Deserializer &d)
{
    auto getHalf = [&](std::vector<Entry> &half, const char *name) {
        d.expectU32(static_cast<uint32_t>(half.size()), name);
        for (Entry &e : half) {
            e.valid = d.getBool();
            e.key = d.getU32();
            e.pte = d.getU32();
        }
    };
    getHalf(process_, "TB process entries");
    getHalf(system_, "TB system entries");
    stats_.restore(d);
}

// ====================== WriteBuffer ======================

void
WriteBuffer::save(snap::Serializer &s) const
{
    s.putU32(remaining_);
    s.putU64(writesAccepted_);
}

void
WriteBuffer::restore(snap::Deserializer &d)
{
    remaining_ = d.getU32();
    writesAccepted_ = d.getU64();
}

// ====================== Sbi ======================

void
Sbi::save(snap::Serializer &s) const
{
    s.putU32(remaining_);
    s.putU64(transactions_);
}

void
Sbi::restore(snap::Deserializer &d)
{
    remaining_ = d.getU32();
    transactions_ = d.getU64();
}

// ====================== PhysicalMemory ======================

void
PhysicalMemory::save(snap::Serializer &s) const
{
    s.putU32(size());
    s.putBytesRle(data_, size_);
}

void
PhysicalMemory::restore(snap::Deserializer &d)
{
    d.expectU32(size(), "physical memory size");
    d.getBytesRle(data_, size_);
}

// ====================== MemSystem ======================

void
MemSystem::save(snap::Serializer &s) const
{
    s.beginSection("mem");
    // Timing configuration is part of the fingerprint: a snapshot's
    // future depends on the penalties the machine was built with.
    s.putU32(cfg_.readMissPenalty);
    s.putU32(cfg_.writeDrainCycles);
    s.putU32(cfg_.ibFillPenalty);
    s.putBool(mapEnable_);

    s.putU8(static_cast<uint8_t>(fill_));
    s.putU32(fillPa_);

    s.putBool(eboxReadActive_);
    s.putBool(eboxReadQueued_);
    s.putU32(eboxReadPa_);
    s.putU32(static_cast<uint32_t>(eboxReadBytes_));
    s.putBool(eboxReadReady_);
    s.putU32(eboxReadData_);

    s.putBool(eboxWritePending_);
    s.putU32(eboxWritePa_);
    s.putU32(eboxWriteData_);
    s.putU32(static_cast<uint32_t>(eboxWriteBytes_));
    s.putBool(eboxWriteDone_);

    s.putBool(ibFillActive_);
    s.putBool(ibFillQueued_);
    s.putU32(ibFillPa_);
    s.putBool(ibFillReady_);
    s.putU32(ibFillData_);

    s.putBool(eboxPortUsed_);
    s.putU64(dataReads_);
    s.putU64(dataWrites_);
    s.putU64(ibFetches_);

    wb_.save(s);
    sbi_.save(s);
    s.endSection();

    s.beginSection("mem.cache");
    cache_.save(s);
    s.endSection();

    s.beginSection("mem.tb");
    tb_.save(s);
    s.endSection();

    s.beginSection("mem.phys");
    phys_.save(s);
    s.endSection();

    // The injector exists only when the config enables a fault class;
    // its presence is itself part of the fingerprint.
    s.beginSection("mem.faults");
    s.putBool(faults_ != nullptr);
    if (faults_)
        faults_->save(s);
    s.endSection();
}

void
MemSystem::restore(snap::Deserializer &d)
{
    d.beginSection("mem");
    d.expectU32(cfg_.readMissPenalty, "read-miss penalty");
    d.expectU32(cfg_.writeDrainCycles, "write-drain cycles");
    d.expectU32(cfg_.ibFillPenalty, "IB fill penalty");
    mapEnable_ = d.getBool();

    fill_ = static_cast<FillKind>(d.getU8());
    fillPa_ = d.getU32();

    eboxReadActive_ = d.getBool();
    eboxReadQueued_ = d.getBool();
    eboxReadPa_ = d.getU32();
    eboxReadBytes_ = d.getU32();
    eboxReadReady_ = d.getBool();
    eboxReadData_ = d.getU32();

    eboxWritePending_ = d.getBool();
    eboxWritePa_ = d.getU32();
    eboxWriteData_ = d.getU32();
    eboxWriteBytes_ = d.getU32();
    eboxWriteDone_ = d.getBool();

    ibFillActive_ = d.getBool();
    ibFillQueued_ = d.getBool();
    ibFillPa_ = d.getU32();
    ibFillReady_ = d.getBool();
    ibFillData_ = d.getU32();

    eboxPortUsed_ = d.getBool();
    dataReads_ = d.getU64();
    dataWrites_ = d.getU64();
    ibFetches_ = d.getU64();

    wb_.restore(d);
    sbi_.restore(d);
    d.endSection();

    d.beginSection("mem.cache");
    cache_.restore(d);
    d.endSection();

    d.beginSection("mem.tb");
    tb_.restore(d);
    d.endSection();

    d.beginSection("mem.phys");
    phys_.restore(d);
    d.endSection();

    d.beginSection("mem.faults");
    bool hadInjector = d.getBool();
    if (hadInjector != (faults_ != nullptr))
        throw snap::SnapshotError(
            std::string("snapshot: fault injector ") +
            (hadInjector ? "present" : "absent") +
            " in the snapshot but " +
            (faults_ ? "present" : "absent") +
            " in this machine (different fault configuration)");
    if (faults_)
        faults_->restore(d);
    d.endSection();
}

} // namespace vax
