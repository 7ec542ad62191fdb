#include "cpu/ebox.hh"

#include "arch/ffloat.hh"
#include "cpu/pregs.hh"
#include "support/bitutil.hh"
#include "support/logging.hh"
#include "support/trace.hh"
#include "upc/monitor.hh"

namespace vax
{

Ebox::Ebox(const ControlStore &cs, MemSystem &mem, InstructionBuffer &ib,
           IFetch &ifetch, InterruptController &intc, IntervalTimer &timer,
           HwCounters &hw)
    : cs_(cs), mem_(mem), ib_(ib), ifetch_(ifetch), intc_(intc),
      timer_(timer), hw_(hw), dtab_(cs.decodedTable()), dsize_(cs.size()),
      optab_(opcodeTable().data())
{
}

Ebox::~Ebox()
{
    if (mon_) {
        flushCycleBatch();
        mon_->detachEbox(this);
    }
}

void
Ebox::setCycleSink(CycleSink *sink)
{
    flushCycleBatch();
    if (mon_)
        mon_->detachEbox(this);
    mon_ = nullptr;
    sink_ = sink;
    refreshBatchOn();
}

void
Ebox::setCycleSink(UpcMonitor *mon)
{
    flushCycleBatch();
    if (mon_ && mon_ != mon)
        mon_->detachEbox(this);
    mon_ = mon;
    sink_ = mon;
    if (mon)
        mon->attachEbox(this);
    refreshBatchOn();
}

void
Ebox::detachMonitor(UpcMonitor *mon)
{
    if (mon_ != mon)
        return;
    // The monitor's destructor synced before detaching; anything still
    // batched has nowhere to go.
    batchN_ = 0;
    mon_ = nullptr;
    sink_ = nullptr;
    batchOn_ = false;
}

void
Ebox::setFlowCheck(bool on)
{
    flowCheck_ = on;
    refreshBatchOn();
}

void
Ebox::refreshBatchOn()
{
    // collecting() folds the monitor's CSR into the one flag the
    // per-cycle path tests; UpcMonitor::start/stop/restore call back
    // here whenever it changes.  A stopped monitor drops to the
    // virtual count(), which discards.
    batchOn_ = mon_ && mon_->collecting() && !flowCheck_ &&
               !trace::anyEnabled();
}

void
Ebox::flushCycleBatch() const
{
    if (batchN_ == 0)
        return;
    mon_->applyBatch(batch_, batchN_);
    batchN_ = 0;
}

void
Ebox::reset(VirtAddr pc, CpuMode mode)
{
    flushCycleBatch();
    refreshBatchOn();
    psl_ = Psl();
    psl_.cur = mode;
    psl_.ipl = mode == CpuMode::Kernel ? 31 : 0;
    state_ = State::Running;
    halted_ = false;
    trapStack_.clear();
    microStack_.clear();
    redirect(pc);
    upc_ = cs_.entries.iid;
}

void
Ebox::setGpr(unsigned r, uint32_t v)
{
    upc_assert(r < NumGpr);
    gpr_[r] = v;
}

UAddr
Ebox::endTarget()
{
    // Instruction boundary: drain the batched counts and re-sample the
    // cached fast-path flag (the trace mask can change between
    // instructions; CSR start/stop is handled per record).
    flushCycleBatch();
    refreshBatchOn();
    // Machine checks outrank interrupts: a latched hardware error is
    // dispatched at the first instruction boundary, before any device.
    if (mem_.machineCheckPending()) {
        mcheckCause_ = static_cast<uint32_t>(mem_.takeMachineCheck());
        ++hw_.microTraps;
        TRACE(UCode, "machine check dispatch cause=%u", mcheckCause_);
        return cs_.entries.machineCheck;
    }
    int level = intc_.pendingAbove(psl_.ipl);
    if (level > 0) {
        intc_.acknowledge(static_cast<unsigned>(level));
        pendingIntLevel_ = static_cast<unsigned>(level);
        ++hw_.interrupts;
        TRACE(UCode, "interrupt dispatch ipl=%d", level);
        return cs_.entries.interrupt;
    }
    return cs_.entries.iid;
}

UAddr
Ebox::resolveNext()
{
    if (pendingEnd_)
        return endTarget();
    if (seqSet_)
        return nextUpc_;
    return static_cast<UAddr>(upc_ + 1);
}

UAddr
Ebox::handlerFor(TrapKind kind) const
{
    switch (kind) {
      case TrapKind::TbMissD:    return cs_.entries.tbMissD;
      case TrapKind::TbMissI:    return cs_.entries.tbMissI;
      case TrapKind::AlignRead:  return cs_.entries.alignRead;
      case TrapKind::AlignWrite: return cs_.entries.alignWrite;
    }
    panic("bad trap kind");
}

namespace
{

const char *
trapKindName(unsigned kind)
{
    static const char *const names[] = {
        "tbMissD", "tbMissI", "alignRead", "alignWrite",
    };
    return kind < 4 ? names[kind] : "?";
}

} // anonymous namespace

void
Ebox::takeTrap(TrapKind kind, VirtAddr va, const PendingMemOp &op)
{
    TRACE(UCode, "microtrap %s va=%08x upc=%u",
          trapKindName(static_cast<unsigned>(kind)), va,
          static_cast<unsigned>(upc_));
    ++hw_.microTraps;
    if (kind == TrapKind::AlignRead || kind == TrapKind::AlignWrite)
        ++hw_.unalignedRefs;
    TrapFrame f;
    f.kind = kind;
    f.trapUpc = upc_;
    f.resumeIsEnd = pendingEnd_;
    f.resumeUpc = seqSet_ ? nextUpc_ : static_cast<UAddr>(upc_ + 1);
    f.op = op;
    f.va = va;
    trapStack_.push_back(f);
    // The cycle in which the trap is recognized is the abort cycle; it
    // is counted at the dedicated abort location (Table 8's Abort row)
    // and the machine enters the service microcode directly.
    upc_ = handlerFor(kind);
}

void
Ebox::cycleSlow()
{
    switch (state_) {
      case State::Halted:
        return;

      case State::ReadStall:
        if (!mem_.eboxReadDone()) {
            emitCycle(upc_, true);
            return;
        }
        md_ = mem_.takeEboxReadData();
        state_ = State::Running;
        upc_ = afterMemIsEnd_ ? endTarget() : afterMem_;
        afterMemIsEnd_ = false;
        break; // fall through: execute the next microword this cycle

      case State::WriteStall:
        if (!mem_.eboxWriteDone()) {
            emitCycle(upc_, true);
            return;
        }
        mem_.ackEboxWriteDone();
        // The delayed issue consumes this cycle as the microword's
        // normal cycle.
        emitCycle(upc_, false);
        state_ = State::Running;
        upc_ = afterMemIsEnd_ ? endTarget() : afterMem_;
        afterMemIsEnd_ = false;
        return;

      case State::Reissue: {
        const PendingMemOp &op = reissueFrame_.op;
        MemResult res;
        switch (op.kind) {
          case PendingMemOp::Kind::Read:
            res = mem_.dataRead(op.va, op.bytes, psl_.cur);
            break;
          case PendingMemOp::Kind::PhysRead:
            res = mem_.physRead(op.va);
            break;
          case PendingMemOp::Kind::Write:
            res = mem_.dataWrite(op.va, op.data, op.bytes, psl_.cur);
            break;
          default:
            panic("reissue with no pending op");
        }
        switch (res.status) {
          case MemStatus::Ok:
            if (op.kind != PendingMemOp::Kind::Write)
                md_ = res.data;
            emitCycle(reissueFrame_.trapUpc, false);
            state_ = State::Running;
            upc_ = reissueFrame_.resumeIsEnd ? endTarget()
                                             : reissueFrame_.resumeUpc;
            return;
          case MemStatus::Stall:
            upc_ = reissueFrame_.trapUpc;
            afterMem_ = reissueFrame_.resumeUpc;
            afterMemIsEnd_ = reissueFrame_.resumeIsEnd;
            if (op.kind == PendingMemOp::Kind::Write) {
                emitCycle(upc_, true);
                state_ = State::WriteStall;
            } else {
                emitCycle(upc_, false);
                state_ = State::ReadStall;
            }
            return;
          case MemStatus::TbMiss:
          case MemStatus::Unaligned: {
            // Nested trap during the re-issue: push a fresh frame that
            // preserves the original resume point.
            ++hw_.microTraps;
            TrapFrame f = reissueFrame_;
            f.kind = res.status == MemStatus::TbMiss
                ? TrapKind::TbMissD
                : (op.kind == PendingMemOp::Kind::Write
                   ? TrapKind::AlignWrite : TrapKind::AlignRead);
            f.va = op.va;
            trapStack_.push_back(f);
            upc_ = handlerFor(f.kind);
            state_ = State::Running;
            emitCycle(cs_.entries.abort, false);
            return;
          }
          case MemStatus::AccessViolation:
            fault(FaultKind::AccessViolation, "on re-issue");
        }
        return;
      }

      case State::Running:
        break;
    }

    runMicroword();
}

void
Ebox::runMicroword()
{
    if (upc_ >= dsize_) [[unlikely]]
        badMicroAddress(upc_, dsize_);

    seqSet_ = false;
    pendingEnd_ = false;
    ibFailed_ = false;
    memIssued_ = false;
    memTrapped_ = false;
    reissuePending_ = false;
    trapRetSatisfied_ = false;

    // One predictable indirect call through the flat table, operands
    // pre-packed at ROM build time.
    const DecodedWord &d = dtab_[upc_];
    d.fn(*this, d.ops);

    if (ibFailed_ || memTrapped_ || reissuePending_) [[unlikely]] {
        microwordEvent();
        return;
    }

    if (flowCheck_) [[unlikely]]
        checkDeclaredFlow(cs_.annotation(upc_));

    if (memIssued_ && memStatus_ == MemStatus::Stall) {
        afterMemIsEnd_ = pendingEnd_;
        afterMem_ = seqSet_ ? nextUpc_ : static_cast<UAddr>(upc_ + 1);
        if (curOp_.kind == PendingMemOp::Kind::Write) {
            // Write stall: stall cycles first, the issue cycle follows.
            emitCycle(upc_, true);
            state_ = State::WriteStall;
        } else {
            // Read: the issue cycle is a normal cycle, then stalls.
            emitCycle(upc_, false);
            state_ = State::ReadStall;
        }
        return;
    }

    emitCycle(upc_, false);
    if (halted_) [[unlikely]] {
        flushCycleBatch();
        state_ = State::Halted;
        return;
    }
    upc_ = resolveNext();
}

void
Ebox::microwordEvent()
{
    if (ibFailed_) {
        // IB starvation.  If the I-stream took a TB miss, service it
        // (abort cycle, then the fill microcode); otherwise count an
        // IB-stall cycle at the requesting microword and retry.
        if (ifetch_.itbMiss()) {
            PendingMemOp none;
            VirtAddr va = ifetch_.itbMissVa();
            // Resume by re-running this microword.
            seqSet_ = true;
            nextUpc_ = upc_;
            pendingEnd_ = false;
            takeTrap(TrapKind::TbMissI, va, none);
            emitCycle(cs_.entries.abort, false);
            return;
        }
        if (flowCheck_ && !cs_.annotation(upc_).ibRequest)
            panic("microword %s (upc=%u) IB-stalled but is not "
                  "annotated ibRequest",
                  cs_.annotation(upc_).name,
                  static_cast<unsigned>(upc_));
        emitCycle(upc_, true);
        return; // upc_ unchanged: retry next cycle
    }

    if (memTrapped_) {
        takeTrap(curTrapKind_, curTrapVa_, curOp_);
        emitCycle(cs_.entries.abort, false);
        return;
    }

    // reissuePending_: uTrapRet consumed this cycle; the re-issue
    // starts next cycle.
    emitCycle(upc_, false);
    state_ = State::Reissue;
}

void
Ebox::checkDeclaredFlow(const UAnnotation &ann)
{
    if (!cs_.flowsResolved())
        return;
    const UFlow &f = cs_.flow(upc_);
    // Trap-return words resume through a trap frame; their successor
    // is any word that can issue a memory op, so the check skips them.
    if (f.trapRet)
        return;
    const unsigned at = upc_;
    if (memIssued_) {
        bool is_write = curOp_.kind == PendingMemOp::Kind::Write;
        UMemKind want = is_write ? UMemKind::Write : UMemKind::Read;
        if (ann.mem != want)
            panic("microword %s (upc=%u) issued a %s but is annotated "
                  "mem=%u", ann.name, at,
                  is_write ? "write" : "read",
                  static_cast<unsigned>(ann.mem));
    }
    if (halted_) {
        if (!f.stop)
            panic("microword %s (upc=%u) halted without a declared "
                  "stop edge", ann.name, at);
        return;
    }
    if (pendingEnd_) {
        if (!f.end)
            panic("microword %s (upc=%u) ended the instruction without "
                  "a declared end edge", ann.name, at);
        return;
    }
    if (seqSet_) {
        if (!cs_.flowAllows(upc_, nextUpc_))
            panic("microword %s (upc=%u) jumped to undeclared "
                  "successor %u", ann.name, at,
                  static_cast<unsigned>(nextUpc_));
        return;
    }
    if (!f.fall)
        panic("microword %s (upc=%u) fell through without a declared "
              "fall edge", ann.name, at);
}

// ===================== sequencing services =====================

void
Ebox::uTrapRet()
{
    upc_assert(!trapStack_.empty());
    TrapFrame f = trapStack_.back();
    trapStack_.pop_back();
    if (f.op.kind == PendingMemOp::Kind::None) {
        // IB-retry trap: re-run the stalled microword.
        seqSet_ = true;
        nextUpc_ = f.trapUpc;
    } else {
        reissueFrame_ = f;
        reissuePending_ = true;
    }
}

void
Ebox::uTrapRetSatisfied()
{
    upc_assert(!trapStack_.empty());
    TrapFrame f = trapStack_.back();
    trapStack_.pop_back();
    if (f.resumeIsEnd) {
        pendingEnd_ = true;
    } else {
        seqSet_ = true;
        nextUpc_ = f.resumeUpc;
    }
}

// ===================== memory services =====================

void
Ebox::memRead(VirtAddr va, unsigned bytes)
{
    if (bytes < 1 || bytes > 4) {
        panic("memRead of %u bytes at upc=%u (%s) pc=%#x opcode=%s",
              bytes, upc_, cs_.annotation(upc_).name, lat.instrPc,
              lat.info ? lat.info->mnemonic : "?");
    }
    upc_assert(!memIssued_ && !memTrapped_ && !ibFailed_);
    PendingMemOp op{PendingMemOp::Kind::Read, va, 0, bytes};
    MemResult res = mem_.dataRead(va, bytes, psl_.cur);
    issueResult(res, op);
}

void
Ebox::memReadPhys(PhysAddr pa)
{
    upc_assert(!memIssued_ && !memTrapped_ && !ibFailed_);
    PendingMemOp op{PendingMemOp::Kind::PhysRead, pa, 0, 4};
    MemResult res = mem_.physRead(pa);
    issueResult(res, op);
}

void
Ebox::memWrite(VirtAddr va, uint32_t data, unsigned bytes)
{
    upc_assert(!memIssued_ && !memTrapped_ && !ibFailed_);
    PendingMemOp op{PendingMemOp::Kind::Write, va, data, bytes};
    MemResult res = mem_.dataWrite(va, data, bytes, psl_.cur);
    issueResult(res, op);
}

void
Ebox::memWritePhys(PhysAddr pa, uint32_t data, unsigned bytes)
{
    upc_assert(!memIssued_ && !memTrapped_ && !ibFailed_);
    // Physical writes (PCB save/restore) are always aligned and never
    // TB-miss, so they need no re-issue path.
    PendingMemOp op{PendingMemOp::Kind::Write, pa, data, bytes};
    MemResult res = mem_.physWrite(pa, data, bytes);
    issueResult(res, op);
}

void
Ebox::issueResult(const MemResult &res, const PendingMemOp &op)
{
    curOp_ = op;
    switch (res.status) {
      case MemStatus::Ok:
        memIssued_ = true;
        memStatus_ = MemStatus::Ok;
        if (op.kind != PendingMemOp::Kind::Write)
            md_ = res.data;
        break;
      case MemStatus::Stall:
        memIssued_ = true;
        memStatus_ = MemStatus::Stall;
        break;
      case MemStatus::TbMiss:
        memTrapped_ = true;
        curTrapKind_ = TrapKind::TbMissD;
        curTrapVa_ = op.va;
        break;
      case MemStatus::Unaligned:
        memTrapped_ = true;
        curTrapKind_ = op.kind == PendingMemOp::Kind::Write
            ? TrapKind::AlignWrite : TrapKind::AlignRead;
        curTrapVa_ = op.va;
        break;
      case MemStatus::AccessViolation:
        fault(FaultKind::AccessViolation);
    }
}

// ===================== TB / trap services =====================

void
Ebox::tbInsert(VirtAddr va, uint32_t pte_value)
{
    if (!pte::valid(pte_value))
        fault(FaultKind::TranslationNotValid);
    mem_.tb().insert(va, pte_value);
}

bool
Ebox::tbProbeSystem(VirtAddr va, PhysAddr *pa)
{
    return mem_.probe(va, false, CpuMode::Kernel, pa) == TbResult::Hit;
}

bool
Ebox::trapIsWrite() const
{
    upc_assert(!trapStack_.empty());
    return trapStack_.back().op.kind == PendingMemOp::Kind::Write;
}

void
Ebox::trappedOp(VirtAddr *va, uint32_t *data, unsigned *bytes) const
{
    upc_assert(!trapStack_.empty());
    const PendingMemOp &op = trapStack_.back().op;
    *va = op.va;
    *data = op.data;
    *bytes = op.bytes;
}

VirtAddr
Ebox::trapVaTop() const
{
    upc_assert(!trapStack_.empty());
    return trapStack_.back().va;
}

uint8_t
Ebox::trapKindTop() const
{
    upc_assert(!trapStack_.empty());
    return static_cast<uint8_t>(trapStack_.back().kind);
}

// ===================== misc services =====================

void
Ebox::redirect(VirtAddr target)
{
    ifetch_.redirect(target);
    decodePc_ = target;
}

void
Ebox::fault(FaultKind kind, const char *detail)
{
    const char *names[] = {
        "reserved instruction", "reserved operand",
        "reserved addressing mode", "access violation",
        "translation not valid", "privileged instruction",
        "breakpoint", "arithmetic trap",
    };
    panic("architectural fault: %s (%s) at pc=%#x upc=%u opcode=%s",
          names[static_cast<unsigned>(kind)], detail, lat.instrPc, upc_,
          lat.info ? lat.info->mnemonic : "?");
}

void
Ebox::switchMode(CpuMode m)
{
    if (m == psl_.cur)
        return;
    spBank_[static_cast<unsigned>(psl_.cur)] = gpr_[SP];
    gpr_[SP] = spBank_[static_cast<unsigned>(m)];
    psl_.cur = m;
}

void
Ebox::mtpr(uint32_t regnum, uint32_t value)
{
    if (psl_.cur != CpuMode::Kernel)
        fault(FaultKind::PrivilegedInstruction, "MTPR in user mode");
    if (regnum >= pr::NumPr)
        fault(FaultKind::ReservedOperand, "bad processor register");
    switch (regnum) {
      case pr::KSP:
        if (psl_.cur == CpuMode::Kernel)
            gpr_[SP] = value;
        else
            spBank_[static_cast<unsigned>(CpuMode::Kernel)] = value;
        break;
      case pr::USP:
        spBank_[static_cast<unsigned>(CpuMode::User)] = value;
        break;
      case pr::IPL:
        psl_.ipl = static_cast<uint8_t>(value & 0x1F);
        break;
      case pr::SIRR:
        if (value >= 1 && value <= 15)
            intc_.requestSoftware(value);
        break;
      case pr::SISR:
        intc_.setSisr(static_cast<uint16_t>(value));
        break;
      case pr::TBIA:
        mem_.tb().invalidateAll();
        break;
      case pr::TBIS:
        mem_.tb().invalidateSingle(value);
        break;
      case pr::MAPEN:
        mem_.setMapEnable(value & 1);
        break;
      case pr::ICCS:
        timer_.setIccs(value);
        break;
      case pr::NICR:
        timer_.setNicr(value);
        break;
      default:
        pr_[regnum] = value;
        break;
    }
}

uint32_t
Ebox::mfpr(uint32_t regnum)
{
    if (psl_.cur != CpuMode::Kernel)
        fault(FaultKind::PrivilegedInstruction, "MFPR in user mode");
    if (regnum >= pr::NumPr)
        fault(FaultKind::ReservedOperand, "bad processor register");
    switch (regnum) {
      case pr::KSP:
        return psl_.cur == CpuMode::Kernel
            ? gpr_[SP]
            : spBank_[static_cast<unsigned>(CpuMode::Kernel)];
      case pr::USP:
        return psl_.cur == CpuMode::User
            ? gpr_[SP]
            : spBank_[static_cast<unsigned>(CpuMode::User)];
      case pr::IPL:
        return psl_.ipl;
      case pr::SISR:
        return intc_.sisr();
      case pr::ICCS:
        return timer_.iccs();
      case pr::ICR:
        return timer_.icr();
      case pr::NICR:
        return timer_.nicr();
      case pr::MAPEN:
        return mem_.mapEnable() ? 1 : 0;
      default:
        return pr_[regnum];
    }
}

uint32_t
Ebox::expandLiteral(uint8_t literal, DataType type) const
{
    if (type == DataType::FFloat) {
        uint32_t exp = 128u + ((literal >> 3) & 7);
        uint32_t frac_hi = (literal & 7) << 4;
        return (exp << 7) | frac_hi;
    }
    return literal;
}

} // namespace vax
