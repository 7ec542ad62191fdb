#include "cpu/ifetch.hh"

namespace vax
{

void
IFetch::cycleSlow(CpuMode mode)
{
    // Collect a completed fill first.
    if (mem_.ibFillDone()) {
        uint32_t data = mem_.takeIbFillData();
        bool discard = discardFill_;
        discardFill_ = false;
        awaitingFill_ = false;
        if (!discard)
            acceptLongword(data);
    }

    if (redirectDelay_ > 0) {
        // The EBOX redirected the stream last cycle; address setup
        // takes a cycle before the first target fetch can issue.
        --redirectDelay_;
        return;
    }
    if (awaitingFill_ || itbMiss_)
        return;
    if (!ib_.canAccept())
        return;
    if (mem_.eboxPortUsed())
        return; // the EBOX had the cache this cycle

    issueFetch(mode);
}

void
IFetch::redirect(VirtAddr pc)
{
    ib_.flush();
    viba_ = pc;
    itbMiss_ = false;
    redirectDelay_ = 2;
    if (awaitingFill_)
        discardFill_ = true;
}

} // namespace vax
