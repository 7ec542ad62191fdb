/**
 * @file
 * VMS-lite service and robustness tests: system-call semantics,
 * image restart, terminal-silo overflow, and scheduling at scale.
 */

#include <gtest/gtest.h>

#include "arch/assembler.hh"
#include "cpu/cpu.hh"
#include "os/abi.hh"
#include "os/vms.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"

namespace vax::test
{

using Op = Operand;

namespace
{

struct OsRig
{
    explicit OsRig(const VmsConfig &cfg = VmsConfig())
        : os(cpu, monitor, cfg)
    {
        cpu.setCycleSink(&monitor);
    }

    uint32_t
    userLong(unsigned proc, uint32_t p0va)
    {
        return cpu.mem().phys().read(os.processImagePa(proc) + p0va,
                                     4);
    }

    Cpu780 cpu;
    UpcMonitor monitor;
    VmsLite os;
};

} // anonymous namespace

TEST(OsServices, GetsDeliversCannedLine)
{
    OsRig rig;
    Assembler a(0);
    a.lword(0); // keep address 0 free
    a.bind(a.sym("buf"));
    a.space(32);
    a.bind(a.sym("done"));
    a.lword(0);
    a.bind(a.sym("entry"));
    a.instr(op::MOVAB, {Op::rel(a.sym("buf")), Op::reg(R1)});
    a.instr(op::CHMK, {Op::imm(abi::sysGets)});
    a.instr(op::MOVL, {Op::imm(1), Op::rel(a.sym("done"))});
    a.bind(a.sym("spin"));
    a.instr(op::BRB, {Op::branch(a.sym("spin"))});

    UserProgram prog;
    prog.entry = a.addrOf(a.sym("entry"));
    uint32_t buf = a.addrOf(a.sym("buf"));
    uint32_t done = a.addrOf(a.sym("done"));
    prog.image = a.finish();
    rig.os.addProcess(prog);
    rig.os.boot();
    rig.cpu.run(100000);

    ASSERT_EQ(rig.userLong(0, done), 1u);
    // The canned line "run analysis 7\r\n" arrived in the buffer.
    std::string got;
    for (unsigned i = 0; i < 4; ++i)
        got.push_back(static_cast<char>(
            rig.cpu.mem().phys().readByte(
                rig.os.processImagePa(0) + buf + i)));
    EXPECT_EQ(got, "run ");
}

TEST(OsServices, PutsNotifiesTerminal)
{
    OsRig rig;
    Assembler a(0);
    a.lword(0);
    a.bind(a.sym("msg"));
    a.ascii("hello operator$pad-pad-pad-pad--");
    a.bind(a.sym("entry"));
    a.instr(op::MOVAB, {Op::rel(a.sym("msg")), Op::reg(R1)});
    a.instr(op::MOVL, {Op::imm(32), Op::reg(R2)});
    a.instr(op::CHMK, {Op::imm(abi::sysPuts)});
    a.bind(a.sym("spin"));
    a.instr(op::BRB, {Op::branch(a.sym("spin"))});

    UserProgram prog;
    prog.entry = a.addrOf(a.sym("entry"));
    prog.image = a.finish();
    rig.os.addProcess(prog);

    unsigned outputs = 0;
    uint32_t last_value = 0;
    rig.os.onTerminalOutput([&](uint32_t v) {
        ++outputs;
        last_value = v;
    });
    rig.os.boot();
    rig.cpu.run(100000);

    EXPECT_EQ(outputs, 1u);
    // The kernel LOCCed for '$' in the staging buffer: R0 (remaining
    // at match) is what it writes to the notify port; '$' is at
    // offset 14 of 32 -> remaining = 18.
    EXPECT_EQ(last_value, 18u);
}

TEST(OsServices, ExitRestartsImage)
{
    OsRig rig;
    Assembler a(0);
    a.lword(0);
    a.bind(a.sym("count"));
    a.lword(0);
    a.bind(a.sym("entry"));
    a.instr(op::INCL, {Op::rel(a.sym("count"))});
    a.instr(op::CHMK, {Op::imm(abi::sysExit)});
    // Never reached: EXIT restarts at entry.
    a.instr(op::HALT);

    UserProgram prog;
    prog.entry = a.addrOf(a.sym("entry"));
    uint32_t count = a.addrOf(a.sym("count"));
    prog.image = a.finish();
    rig.os.addProcess(prog);
    rig.os.boot();
    rig.cpu.run(200000);
    ASSERT_FALSE(rig.cpu.halted());
    // The image restarted many times.
    EXPECT_GT(rig.userLong(0, count), 50u);
}

TEST(OsServices, MailboxOverflowDropsLines)
{
    OsRig rig;
    Assembler a(0);
    a.lword(0);
    a.bind(a.sym("entry"));
    a.bind(a.sym("spin"));
    a.instr(op::BRB, {Op::branch(a.sym("spin"))});
    UserProgram prog;
    prog.entry = a.addrOf(a.sym("entry"));
    prog.image = a.finish();
    rig.os.addProcess(prog);
    rig.os.boot();
    // Flood the silo without letting the machine drain it.
    for (unsigned i = 0; i < abi::mbxEntries + 20; ++i)
        rig.os.postTerminalLine(0);
    // The ring held; the machine still runs.
    rig.cpu.run(50000);
    EXPECT_FALSE(rig.cpu.halted());
}

TEST(OsServices, ManyProcessesTimeshare)
{
    VmsConfig cfg;
    cfg.timerIntervalCycles = 4000;
    cfg.quantumTicks = 1;
    OsRig rig(cfg);
    const unsigned nproc = 24;
    std::vector<uint32_t> counter_va(nproc);
    for (unsigned p = 0; p < nproc; ++p) {
        Assembler a(0);
        a.lword(0);
        a.bind(a.sym("count"));
        a.lword(0);
        a.bind(a.sym("entry"));
        a.bind(a.sym("loop"));
        a.instr(op::INCL, {Op::rel(a.sym("count"))});
        a.instr(op::BRB, {Op::branch(a.sym("loop"))});
        UserProgram prog;
        prog.entry = a.addrOf(a.sym("entry"));
        prog.terminalId = p;
        counter_va[p] = a.addrOf(a.sym("count"));
        prog.image = a.finish();
        rig.os.addProcess(prog);
    }
    rig.os.boot();
    rig.cpu.run(1200000);
    unsigned progressed = 0;
    for (unsigned p = 0; p < nproc; ++p)
        progressed += rig.userLong(p, counter_va[p]) > 0;
    EXPECT_EQ(progressed, nproc);
    EXPECT_GT(rig.cpu.hw().contextSwitches, nproc);
}

TEST(OsServices, WaitingMachineIdlesInNull)
{
    OsRig rig;
    Assembler a(0);
    a.lword(0);
    a.bind(a.sym("entry"));
    a.instr(op::CHMK, {Op::imm(abi::sysWaitTerm)});
    a.instr(op::BRB, {Op::branch(a.sym("entry"))});
    UserProgram prog;
    prog.entry = a.addrOf(a.sym("entry"));
    prog.image = a.finish();
    rig.os.addProcess(prog);
    rig.os.boot();
    rig.cpu.run(120000);
    // Monitor gated off while Null runs.
    EXPECT_FALSE(rig.monitor.collecting());
    uint64_t measured = rig.monitor.histogram().cycles();
    // Much of the run was idle and thus unmeasured.
    EXPECT_LT(measured, rig.cpu.cycles() / 2);
    // Timer interrupts kept being measured (ISR re-arms collection).
    HistogramAnalyzer an(rig.cpu.controlStore(),
                         rig.monitor.histogram());
    EXPECT_GT(an.headwayInterrupts(), 0.0);
}

} // namespace vax::test
