#include "os/vms.hh"

#include "arch/assembler.hh"
#include "cpu/pregs.hh"
#include "mem/page_table.hh"
#include "support/bitutil.hh"
#include "support/logging.hh"
#include "support/snapshot.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace vax
{

namespace
{

constexpr uint32_t pcbStride = 128;
// PCB field offsets (must match the SVPCTX/LDPCTX microcode).
constexpr uint32_t pcbKsp = 0;
constexpr uint32_t pcbUsp = 4;
constexpr uint32_t pcbPc = 64;
constexpr uint32_t pcbPsl = 68;
constexpr uint32_t pcbP0br = 72;
constexpr uint32_t pcbP0lr = 76;

constexpr uint32_t userPslPacked = (3u << 24) | (3u << 22); // user/user

VirtAddr
sysva(PhysAddr pa)
{
    return systemBase + pa;
}

} // anonymous namespace

VmsLite::VmsLite(Cpu780 &cpu, UpcMonitor &monitor, const VmsConfig &cfg)
    : cpu_(cpu), monitor_(monitor), cfg_(cfg)
{
}

void
VmsLite::addProcess(UserProgram prog)
{
    upc_assert(!booted_);
    if (prog.image.size() >
        static_cast<size_t>(cfg_.userP0Pages) * pageBytes) {
        fatal("process image (%zu bytes) exceeds its P0 region",
              prog.image.size());
    }
    unsigned p = numProcesses();
    PhysAddr image = processImagePa(p);
    if (static_cast<uint64_t>(image) + cfg_.userP0Pages * pageBytes >
        cpu_.mem().config().memBytes) {
        fatal("VMS-lite: %u processes do not fit in physical memory",
              p + 1);
    }
    // The arena layout is fixed, so the image goes straight to its P0
    // pages now.  Its buffer is freed on return, and the next program
    // generated on this thread reuses the same, already-touched pages.
    cpu_.mem().phys().load(image, prog.image);
    processes_.push_back({prog.entry, prog.terminalId});
}

void
VmsLite::regStats(stats::Registry &r, const std::string &prefix) const
{
    const VmsLite *os = this;
    r.addScalar(prefix + ".ticks", "kernel interval-clock ticks",
                [os] { return os->ticks(); });
    r.addScalar(prefix + ".processes",
                "user processes registered at boot",
                [os] { return uint64_t(os->numProcesses()); });
}

uint64_t
VmsLite::ticks() const
{
    // The tick counter is the third kernel data longword (see the
    // data section layout in buildKernel); its address is recorded
    // during the build.
    return cpu_.mem().phys().read(ticksPa_, 4);
}

uint64_t
VmsLite::machineChecks() const
{
    return mchecksPa_ ? cpu_.mem().phys().read(mchecksPa_, 4) : 0;
}

void
VmsLite::postMailbox(uint32_t id, uint32_t kind, unsigned ipl)
{
    auto &phys = cpu_.mem().phys();
    uint32_t head = phys.read(mbxPa_ + abi::mbxHead, 4);
    uint32_t tail = phys.read(mbxPa_ + abi::mbxTail, 4);
    if (head - tail >= abi::mbxEntries) {
        // Ring full: the device silo overflows, event lost.
        TRACE(Os, "mailbox overflow id=%u kind=%u", id, kind);
        return;
    }
    TRACE(Os, "mailbox post id=%u kind=%u ipl=%u", id, kind, ipl);
    uint32_t idx = head % abi::mbxEntries;
    phys.write(mbxPa_ + abi::mbxRing + abi::mbxEntryBytes * idx, id,
               4);
    phys.write(mbxPa_ + abi::mbxRing + abi::mbxEntryBytes * idx + 4,
               kind, 4);
    phys.write(mbxPa_ + abi::mbxHead, head + 1, 4);
    cpu_.postDeviceInterrupt(ipl);
}

void
VmsLite::postTerminalLine(unsigned terminal_id)
{
    postMailbox(terminal_id, abi::mbxKindTerminal, abi::iplTerminal);
}

void
VmsLite::postDiskCompletion(unsigned process_index)
{
    postMailbox(process_index, abi::mbxKindDisk, abi::iplDisk);
}

PhysAddr
VmsLite::processImagePa(unsigned p) const
{
    uint32_t ptable_bytes = 4 * cfg_.userP0Pages;
    uint32_t arena_stride = alignUp(ptable_bytes, pageBytes) +
        cfg_.userP0Pages * pageBytes;
    return arenaBasePa_ + p * arena_stride +
        alignUp(ptable_bytes, pageBytes);
}

void
VmsLite::boot()
{
    upc_assert(!booted_);
    booted_ = true;
    if (processes_.empty())
        fatal("VMS-lite: no processes registered before boot");

    TRACE(Os, "boot: %u processes, quantum=%u ticks",
          numProcesses(), cfg_.quantumTicks);
    kernelVa_ = sysva(kernelPa_);
    buildTables();
    buildKernel();

    // Unibus device window: monitor CSR at +0, terminal-output notify
    // at +4.
    auto *mon = &monitor_;
    PhysAddr base = mmioPa_;
    auto *self = this;
    cpu_.mem().addIoWriteHook(
        mmioPa_, mmioPa_ + 11,
        [mon, base, self](PhysAddr pa, uint32_t value) {
            if (pa == base)
                mon->unibusWrite(value);
            else if (pa == base + 4 && self->outputFn_)
                self->outputFn_(value);
            else if (pa == base + 8 && self->diskFn_)
                self->diskFn_(value);
        });

    // Console-loaded processor state.
    cpu_.reset(bootVa_, CpuMode::Kernel);
    Ebox &e = cpu_.ebox();
    e.setPrRaw(pr::SBR, sptPa_);
    e.setPrRaw(pr::SLR, cpu_.mem().config().memBytes / pageBytes);
    e.setPrRaw(pr::SCBB, scbPa_);
    // Boot uses the Null process's kernel stack.
    unsigned null_index = numProcesses();
    e.setGpr(SP, sysva(kstackBasePa_ +
                       (null_index + 1) * kstackBytes_));
}

void
VmsLite::buildTables()
{
    auto &phys = cpu_.mem().phys();
    unsigned nproc = numProcesses();

    // System page table: linear map of all physical memory,
    // kernel-only.
    uint32_t spt_entries = cpu_.mem().config().memBytes / pageBytes;
    if (sptPa_ + 4 * spt_entries > kstackBasePa_)
        fatal("VMS-lite: system page table overflows its region");
    for (uint32_t i = 0; i < spt_entries; ++i)
        phys.write(sptPa_ + 4 * i, pte::make(i, false, false), 4);

    // Kernel stacks.
    uint32_t kstack_end = kstackBasePa_ + (nproc + 1) * kstackBytes_;
    if (kstack_end > mmioPa_)
        fatal("VMS-lite: too many processes for the kernel stacks");

    // Per-process arenas: P0 page table followed by the P0 image
    // (loaded by addProcess).
    uint32_t ptable_bytes = 4 * cfg_.userP0Pages;
    for (unsigned p = 0; p < nproc; ++p) {
        PhysAddr image = processImagePa(p);
        PhysAddr ptable = image - alignUp(ptable_bytes, pageBytes);
        // P0 PTEs: user read/write.
        for (uint32_t j = 0; j < cfg_.userP0Pages; ++j) {
            uint32_t pfn = (image >> pageShift) + j;
            phys.write(ptable + 4 * j, pte::make(pfn, true, true), 4);
        }

        // PCB.
        PhysAddr pcb = pcbBasePa_ + p * pcbStride;
        for (uint32_t off = 0; off < pcbStride; off += 4)
            phys.write(pcb + off, 0, 4);
        phys.write(pcb + pcbKsp,
                   sysva(kstackBasePa_ + (p + 1) * kstackBytes_), 4);
        phys.write(pcb + pcbUsp,
                   cfg_.userP0Pages * pageBytes, 4); // top of P0
        phys.write(pcb + pcbPc, processes_[p].entry, 4);
        phys.write(pcb + pcbPsl, userPslPacked, 4);
        phys.write(pcb + pcbP0br, sysva(ptable), 4);
        phys.write(pcb + pcbP0lr, cfg_.userP0Pages, 4);
    }

    // Null process PCB (kernel mode, no P0).
    PhysAddr null_pcb = pcbBasePa_ + nproc * pcbStride;
    for (uint32_t off = 0; off < pcbStride; off += 4)
        phys.write(null_pcb + off, 0, 4);
    phys.write(null_pcb + pcbKsp,
               sysva(kstackBasePa_ + (nproc + 1) * kstackBytes_), 4);
    // PC and PSL are patched in buildKernel once the label is known.
}

void
VmsLite::buildKernel()
{
    using Op = Operand;
    auto &phys = cpu_.mem().phys();
    unsigned nproc = numProcesses();
    PhysAddr null_pcb = pcbBasePa_ + nproc * pcbStride;

    VirtAddr csr = sysva(mmioPa_);
    VirtAddr notify = sysva(mmioPa_ + 4);
    VirtAddr diskreq = sysva(mmioPa_ + 8);
    VirtAddr mbx_head = sysva(mbxPa_ + abi::mbxHead);
    VirtAddr mbx_tail = sysva(mbxPa_ + abi::mbxTail);
    VirtAddr mbx_ring = sysva(mbxPa_ + abi::mbxRing);

    // Kernel symbols by name; sym() allocates a label on first use,
    // so code can refer forward to routines and data defined later.
    Assembler a(kernelVa_);
    auto sym = [&a](std::string_view name) { return a.sym(name); };

    // ================= boot =================
    a.bind(sym("boot"));
    a.instr(op::MOVL, {Op::immAddr(sym("runq_f")), Op::rel(sym("runq_f"))});
    a.instr(op::MOVL, {Op::immAddr(sym("runq_f")), Op::rel(sym("runq_b"))});
    a.instr(op::MOVL, {Op::immAddr(sym("proctab")), Op::reg(R1)});
    a.instr(op::MOVL, {Op::imm(nproc), Op::reg(R2)});
    a.bind(sym("boot_q"));
    a.instr(op::INSQUE, {Op::regDef(R1), Op::relDef(sym("runq_b"))});
    a.instr(op::ADDL2, {Op::imm(abi::ptStride), Op::reg(R1)});
    a.instr(op::SOBGTR, {Op::reg(R2), Op::branch(sym("boot_q"))});
    a.instr(op::MOVL,
            {Op::imm(cfg_.quantumTicks), Op::rel(sym("quantum"))});
    a.instr(op::MTPR,
            {Op::imm(cfg_.timerIntervalCycles), Op::imm(pr::NICR)});
    a.instr(op::MTPR, {Op::imm(0x41), Op::imm(pr::ICCS)});
    a.instr(op::REMQUE, {Op::relDef(sym("runq_f")), Op::reg(R1)});
    a.instr(op::MOVL, {Op::reg(R1), Op::rel(sym("curproc"))});
    a.instr(op::MOVL,
            {Op::imm(UpcMonitor::cmdStart), Op::absolute(csr)});
    a.instr(op::MTPR,
            {Op::disp(abi::ptPcb, R1), Op::imm(pr::PCBB)});
    a.instr(op::LDPCTX);
    a.instr(op::REI);

    // ================= interval-clock ISR =================
    a.bind(sym("timer_isr"));
    a.instr(op::MOVL,
            {Op::imm(UpcMonitor::cmdStart), Op::absolute(csr)});
    a.instr(op::INCL, {Op::rel(sym("ticks"))});
    // Queue fork-level processing on alternate ticks, as VMS's clock
    // service drained its fork queues.
    a.instr(op::BLBC,
            {Op::rel(sym("ticks")), Op::branch(sym("timer_nofork"))});
    a.instr(op::MTPR, {Op::imm(abi::iplFork), Op::imm(pr::SIRR)});
    a.bind(sym("timer_nofork"));
    a.instr(op::DECL, {Op::rel(sym("quantum"))});
    a.instr(op::BGTR, {Op::branch(sym("timer_done"))});
    a.instr(op::MOVL,
            {Op::imm(cfg_.quantumTicks), Op::rel(sym("quantum"))});
    a.instr(op::MTPR,
            {Op::imm(abi::iplResched), Op::imm(pr::SIRR)});
    a.bind(sym("timer_done"));
    a.instr(op::CMPL,
            {Op::rel(sym("curproc")), Op::immAddr(sym("null_entry"))});
    a.instr(op::BNEQ, {Op::branch(sym("timer_rei"))});
    a.instr(op::MOVL,
            {Op::imm(UpcMonitor::cmdStop), Op::absolute(csr)});
    a.bind(sym("timer_rei"));
    a.instr(op::REI);

    // ================= terminal ISR =================
    a.bind(sym("term_isr"));
    a.instr(op::MOVL,
            {Op::imm(UpcMonitor::cmdStart), Op::absolute(csr)});
    a.instr(op::PUSHR, {Op::imm(0x7C)}); // save R2-R6
    a.bind(sym("term_loop"));
    a.instr(op::CMPL,
            {Op::absolute(mbx_head), Op::absolute(mbx_tail)});
    a.instr(op::BEQL, {Op::branch(sym("term_done"))});
    a.instr(op::MOVL, {Op::absolute(mbx_tail), Op::reg(R2)});
    a.instr(op::BICL3, {Op::imm(~uint32_t(abi::mbxEntries - 1)),
                        Op::reg(R2), Op::reg(R3)});
    a.instr(op::ASHL, {Op::lit(3), Op::reg(R3), Op::reg(R3)});
    a.instr(op::ADDL2, {Op::imm(mbx_ring), Op::reg(R3)});
    a.instr(op::MOVL, {Op::regDef(R3), Op::reg(R4)});
    // Disk completions name the process directly.
    a.instr(op::TSTL, {Op::disp(4, R3)});
    a.instr(op::BEQL, {Op::branch(sym("term_lookup"))});
    a.instr(op::ASHL, {Op::imm(5), Op::reg(R4), Op::reg(R5)});
    a.instr(op::ADDL2, {Op::immAddr(sym("proctab")), Op::reg(R5)});
    a.instr(op::BRB, {Op::branch(sym("term_found"))});
    a.bind(sym("term_lookup"));
    // Find the process attached to this terminal.
    a.instr(op::MOVL, {Op::immAddr(sym("proctab")), Op::reg(R5)});
    a.instr(op::MOVL, {Op::imm(nproc), Op::reg(R6)});
    a.bind(sym("term_scan"));
    a.instr(op::CMPL, {Op::disp(abi::ptTermId, R5), Op::reg(R4)});
    a.instr(op::BEQL, {Op::branch(sym("term_found"))});
    a.instr(op::ADDL2, {Op::imm(abi::ptStride), Op::reg(R5)});
    a.instr(op::SOBGTR, {Op::reg(R6), Op::branch(sym("term_scan"))});
    a.instr(op::BRB, {Op::branch(sym("term_consume"))});
    a.bind(sym("term_found"));
    a.instr(op::TSTL, {Op::disp(abi::ptState, R5)});
    a.instr(op::BEQL, {Op::branch(sym("term_consume"))});
    a.instr(op::CLRL, {Op::disp(abi::ptState, R5)});
    a.instr(op::INSQUE, {Op::regDef(R5), Op::relDef(sym("runq_b"))});
    a.instr(op::MTPR,
            {Op::imm(abi::iplResched), Op::imm(pr::SIRR)});
    a.bind(sym("term_consume"));
    a.instr(op::INCL, {Op::absolute(mbx_tail)});
    a.instr(op::BRW, {Op::branch(sym("term_loop"))});
    a.bind(sym("term_done"));
    a.instr(op::POPR, {Op::imm(0x7C)});
    a.instr(op::CMPL,
            {Op::rel(sym("curproc")), Op::immAddr(sym("null_entry"))});
    a.instr(op::BNEQ, {Op::branch(sym("term_rei"))});
    a.instr(op::MOVL,
            {Op::imm(UpcMonitor::cmdStop), Op::absolute(csr)});
    a.bind(sym("term_rei"));
    a.instr(op::REI);

    // ================= fork-level processing ====================
    a.bind(sym("fork_isr"));
    a.instr(op::INCL, {Op::rel(sym("forks"))});
    a.instr(op::REI);

    // ================= reschedule (software interrupt) ===========
    a.bind(sym("resched_isr"));
    a.instr(op::SVPCTX);
    a.instr(op::MOVL, {Op::rel(sym("curproc")), Op::reg(R1)});
    a.instr(op::TSTL, {Op::disp(abi::ptState, R1)});
    a.instr(op::BNEQ, {Op::branch(sym("res_pick"))});
    a.instr(op::INSQUE, {Op::regDef(R1), Op::relDef(sym("runq_b"))});
    a.bind(sym("res_pick"));
    a.instr(op::CMPL, {Op::rel(sym("runq_f")), Op::immAddr(sym("runq_f"))});
    a.instr(op::BEQL, {Op::branch(sym("res_null"))});
    a.instr(op::REMQUE, {Op::relDef(sym("runq_f")), Op::reg(R1)});
    a.instr(op::MOVL, {Op::reg(R1), Op::rel(sym("curproc"))});
    a.instr(op::MOVL,
            {Op::imm(UpcMonitor::cmdStart), Op::absolute(csr)});
    a.instr(op::MTPR,
            {Op::disp(abi::ptPcb, R1), Op::imm(pr::PCBB)});
    a.instr(op::LDPCTX);
    a.instr(op::REI);
    a.bind(sym("res_null"));
    a.instr(op::MOVL,
            {Op::immAddr(sym("null_entry")), Op::rel(sym("curproc"))});
    a.instr(op::MOVL,
            {Op::imm(UpcMonitor::cmdStop), Op::absolute(csr)});
    a.instr(op::MTPR, {Op::imm(null_pcb), Op::imm(pr::PCBB)});
    a.instr(op::LDPCTX);
    a.instr(op::REI);

    // ================= CHMK service dispatcher =================
    a.bind(sym("chmk_handler"));
    a.instr(op::MOVL, {Op::autoInc(SP), Op::reg(R0)}); // service code
    a.instr(op::CASEL, {Op::reg(R0), Op::lit(0), Op::lit(5)});
    a.caseTable({sym("svc_exit"), sym("svc_wait"), sym("svc_puts"),
                 sym("svc_gets"), sym("svc_time"), sym("svc_disk")});
    a.instr(op::REI); // unknown service: ignore

    a.bind(sym("svc_exit"));
    // Restart the process image: rewrite the saved PC.
    a.instr(op::MOVL, {Op::rel(sym("curproc")), Op::reg(R1)});
    a.instr(op::MOVL, {Op::disp(abi::ptEntry, R1), Op::reg(R2)});
    a.instr(op::MOVL, {Op::reg(R2), Op::regDef(SP)});
    a.instr(op::REI);

    a.bind(sym("svc_wait"));
    a.instr(op::MOVL, {Op::rel(sym("curproc")), Op::reg(R1)});
    a.instr(op::MOVL, {Op::imm(abi::stateWaiting),
                       Op::disp(abi::ptState, R1)});
    a.instr(op::MTPR,
            {Op::imm(abi::iplResched), Op::imm(pr::SIRR)});
    a.instr(op::REI);

    a.bind(sym("svc_puts"));
    // R1 = user buffer, R2 = length (clamped to the staging buffer).
    a.instr(op::CMPL, {Op::reg(R2), Op::imm(64)});
    a.instr(op::BLEQ, {Op::branch(sym("puts_ok"))});
    a.instr(op::MOVL, {Op::imm(64), Op::reg(R2)});
    a.bind(sym("puts_ok"));
    a.instr(op::PUSHL, {Op::reg(R2)});
    a.instr(op::MOVC3, {Op::reg(R2), Op::regDef(R1),
                        Op::rel(sym("staging"))});
    a.instr(op::MOVL, {Op::autoInc(SP), Op::reg(R2)});
    a.instr(op::LOCC, {Op::lit(36), Op::reg(R2), Op::rel(sym("staging"))});
    a.instr(op::MOVL, {Op::reg(R0), Op::absolute(notify)});
    a.instr(op::REI);

    a.bind(sym("svc_gets"));
    a.instr(op::MOVC3, {Op::imm(abi::getsLineBytes),
                        Op::rel(sym("canned")), Op::regDef(R1)});
    a.instr(op::MOVL, {Op::imm(abi::getsLineBytes), Op::reg(R0)});
    a.instr(op::REI);

    a.bind(sym("svc_time"));
    a.instr(op::MOVL, {Op::rel(sym("ticks")), Op::reg(R0)});
    a.instr(op::REI);

    // Start a disk transfer: mark the process disk-waiting, tell the
    // controller which process asked (its table index), and yield.
    a.bind(sym("svc_disk"));
    a.instr(op::MOVL, {Op::rel(sym("curproc")), Op::reg(R1)});
    a.instr(op::MOVL, {Op::imm(abi::stateWaitingDisk),
                       Op::disp(abi::ptState, R1)});
    a.instr(op::SUBL3, {Op::immAddr(sym("proctab")), Op::reg(R1),
                        Op::reg(R2)});
    a.instr(op::ASHL, {Op::imm(-5), Op::reg(R2), Op::reg(R2)});
    a.instr(op::MOVL, {Op::reg(R2), Op::absolute(diskreq)});
    a.instr(op::MTPR,
            {Op::imm(abi::iplResched), Op::imm(pr::SIRR)});
    a.instr(op::REI);

    // ================= Null process =================
    a.bind(sym("null_proc"));
    a.instr(op::BRB, {Op::branch(sym("null_proc"))});

    // ================= kernel data =================
    a.align(4);
    a.bind(sym("runq_f"));
    a.lword(0);
    a.bind(sym("runq_b"));
    a.lword(0);
    a.bind(sym("curproc"));
    a.lword(0);
    a.bind(sym("ticks"));
    a.lword(0);
    a.bind(sym("quantum"));
    a.lword(cfg_.quantumTicks);
    a.bind(sym("forks"));
    a.lword(0);
    a.bind(sym("proctab"));
    for (unsigned p = 0; p < nproc; ++p) {
        a.lword(0); // queue flink
        a.lword(0); // queue blink
        a.lword(pcbBasePa_ + p * pcbStride);
        a.lword(abi::stateRunnable);
        a.lword(processes_[p].terminalId);
        a.lword(processes_[p].entry);
        a.lword(0);
        a.lword(0);
    }
    a.bind(sym("null_entry"));
    a.lword(0);
    a.lword(0);
    a.lword(null_pcb);
    a.lword(abi::stateNull);
    a.lword(0xFFFFFFFF);
    a.lword(0);
    a.lword(0);
    a.lword(0);
    a.bind(sym("canned"));
    a.ascii("run analysis 7\r\n"); // abi::getsLineBytes bytes
    a.bind(sym("staging"));
    a.space(80);

    // ================= machine-check handler ====================
    // Deliberately last: with fault injection off this code is never
    // reached, and keeping it past every pre-existing label leaves
    // the fault-free image layout -- and so the fault-free cache/TB
    // reference stream -- untouched.
    //
    // The MCHK microcode pushes (cause, PC, PSL); pop the cause into
    // kernel data, count the check, and resume the interrupted
    // instruction stream -- the hardware layer has already recovered
    // (line invalidated / entry dropped / fill retried).
    a.bind(sym("mcheck_isr"));
    a.instr(op::MOVL, {Op::autoInc(SP), Op::rel(sym("mcheck_last"))});
    a.instr(op::INCL, {Op::rel(sym("mchecks"))});
    a.instr(op::REI);
    a.bind(sym("mchecks"));
    a.lword(0);
    a.bind(sym("mcheck_last"));
    a.lword(0);

    bootVa_ = a.addrOf(sym("boot"));
    ticksPa_ = kernelPa_ + (a.addrOf(sym("ticks")) - kernelVa_);
    mchecksPa_ = kernelPa_ + (a.addrOf(sym("mchecks")) - kernelVa_);

    // Patch the Null PCB now that the label exists.
    phys.write(null_pcb + pcbPc, a.addrOf(sym("null_proc")), 4);
    phys.write(null_pcb + pcbPsl, 0, 4); // kernel, IPL 0

    // SCB vectors.
    phys.write(scbPa_ + 4 * abi::iplTimer, a.addrOf(sym("timer_isr")), 4);
    phys.write(scbPa_ + 4 * abi::iplTerminal, a.addrOf(sym("term_isr")), 4);
    phys.write(scbPa_ + 4 * abi::iplDisk, a.addrOf(sym("term_isr")), 4);
    phys.write(scbPa_ + 4 * abi::iplResched,
               a.addrOf(sym("resched_isr")), 4);
    phys.write(scbPa_ + 4 * abi::iplFork, a.addrOf(sym("fork_isr")), 4);
    phys.write(scbPa_ + 4 * 32, a.addrOf(sym("chmk_handler")), 4);
    phys.write(scbPa_ + 4 * abi::vecMachineCheck,
               a.addrOf(sym("mcheck_isr")), 4);

    auto image = a.finish();
    if (kernelPa_ + image.size() > arenaBasePa_)
        fatal("VMS-lite: kernel image too large");
    phys.load(kernelPa_, image);
}

void
VmsLite::save(snap::Serializer &s) const
{
    // Everything the kernel mutates lives in guest physical memory,
    // which the machine snapshot carries; the host members here are a
    // deterministic function of boot().  What must be verified is
    // that the restoring harness rebuilt the SAME kernel: layout,
    // scheduler parameters and process population.
    s.beginSection("os");
    s.putBool(booted_);
    s.putU32(cfg_.quantumTicks);
    s.putU32(cfg_.timerIntervalCycles);
    s.putU32(cfg_.userP0Pages);
    s.putU32(static_cast<uint32_t>(processes_.size()));
    s.putU32(kernelPa_);
    s.putU32(kernelVa_);
    s.putU32(bootVa_);
    s.putU32(ticksPa_);
    s.putU32(mchecksPa_);
    s.putU32(mmioPa_);
    s.putU32(mbxPa_);
    s.endSection();
}

void
VmsLite::restore(snap::Deserializer &d)
{
    d.beginSection("os");
    bool wasBooted = d.getBool();
    if (wasBooted != booted_)
        throw snap::SnapshotError(
            "snapshot: OS boot state differs (restore into a machine "
            "prepared the same way as the saved one)");
    d.expectU32(cfg_.quantumTicks, "scheduler quantum");
    d.expectU32(cfg_.timerIntervalCycles, "timer interval");
    d.expectU32(cfg_.userP0Pages, "user P0 pages");
    d.expectU32(static_cast<uint32_t>(processes_.size()),
                "process count");
    d.expectU32(kernelPa_, "kernel PA");
    d.expectU32(kernelVa_, "kernel VA");
    d.expectU32(bootVa_, "boot VA");
    d.expectU32(ticksPa_, "ticks PA");
    d.expectU32(mchecksPa_, "mchecks PA");
    d.expectU32(mmioPa_, "monitor CSR PA");
    d.expectU32(mbxPa_, "mailbox PA");
    d.endSection();
}

} // namespace vax
