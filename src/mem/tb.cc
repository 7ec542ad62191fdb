#include "mem/tb.hh"

#include "support/bitutil.hh"
#include "support/faultinject.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace vax
{

void
TbStats::regStats(stats::Registry &r, const std::string &prefix) const
{
    r.addScalar(prefix + ".lookupsI", "I-stream TB lookups",
                &lookupsI);
    r.addScalar(prefix + ".missesI", "I-stream TB misses", &missesI);
    r.addScalar(prefix + ".lookupsD", "D-stream TB lookups",
                &lookupsD);
    r.addScalar(prefix + ".missesD", "D-stream TB misses", &missesD);
    r.addScalar(prefix + ".processFlushes",
                "process-half invalidations (LDPCTX)", &processFlushes);
}

void
TranslationBuffer::regStats(stats::Registry &r,
                            const std::string &prefix) const
{
    stats_.regStats(r, prefix);
    const TbStats *s = &stats_;
    r.addFormula(prefix + ".missRatio",
                 "combined TB miss ratio", [s] {
                     uint64_t lookups = s->lookupsI + s->lookupsD;
                     return lookups
                         ? double(s->missesI + s->missesD) /
                               double(lookups)
                         : 0.0;
                 });
}

TranslationBuffer::TranslationBuffer(const MemConfig &cfg)
    : process_(cfg.tbProcessEntries), system_(cfg.tbSystemEntries)
{
    upc_assert(isPowerOf2(cfg.tbProcessEntries));
    upc_assert(isPowerOf2(cfg.tbSystemEntries));
}

TbResult
TranslationBuffer::lookupSlow(VirtAddr va, bool is_write, CpuMode mode,
                              bool istream, PhysAddr *pa_out,
                              bool count_stats)
{
    if (count_stats) {
        if (istream)
            ++stats_.lookupsI;
        else
            ++stats_.lookupsD;
    }

    Entry *e = entryFor(va);
    if (!e->valid || e->key != keyOf(va)) {
        if (count_stats) {
            if (istream)
                ++stats_.missesI;
            else
                ++stats_.missesD;
            TRACE(Tb, "miss %c va=%08x", istream ? 'I' : 'D', va);
        }
        return TbResult::Miss;
    }

    // An injected parity error on a valid entry is self-healing: the
    // entry is dropped and the ordinary TB-miss microcode refills it
    // from the page table after the machine check is serviced.
    if (count_stats && faults_ && faults_->drawTbCorrupt()) {
        e->valid = false;
        faults_->postMachineCheck(McheckCause::TbCorrupt);
        if (istream)
            ++stats_.missesI;
        else
            ++stats_.missesD;
        TRACE(Tb, "corrupt %c va=%08x", istream ? 'I' : 'D', va);
        return TbResult::Miss;
    }

    return resolve(*e, va, is_write, mode, pa_out);
}

void
TranslationBuffer::insert(VirtAddr va, uint32_t pte_value)
{
    TRACE(Tb, "fill va=%08x pte=%08x", va, pte_value);
    Entry *e = entryFor(va);
    e->valid = true;
    e->key = keyOf(va);
    e->pte = pte_value;
}

void
TranslationBuffer::invalidateAll()
{
    TRACE(Tb, "invalidate all");
    for (auto &e : process_)
        e.valid = false;
    for (auto &e : system_)
        e.valid = false;
}

void
TranslationBuffer::invalidateProcess()
{
    TRACE(Tb, "invalidate process half");
    ++stats_.processFlushes;
    for (auto &e : process_)
        e.valid = false;
}

void
TranslationBuffer::invalidateSingle(VirtAddr va)
{
    Entry *e = entryFor(va);
    if (e->valid && e->key == keyOf(va))
        e->valid = false;
}

} // namespace vax
