/**
 * @file
 * Integration tests of VMS-lite: boot, timesharing between processes,
 * system services, terminal wakeups, context switches, and the Null-
 * process monitor gating.
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

/** A user program: busy loop, syscalls, then wait for the terminal. */
UserProgram
makeUserProgram(unsigned terminal, bool with_wait)
{
    Assembler a(0);
    a.instr(op::BRW, {Op::branch(a.sym("entry"))});
    a.align(4);
    a.bind(a.sym("counter"));
    a.lword(0);
    a.bind(a.sym("buf"));
    a.space(32);
    a.bind(a.sym("entry"));
    a.bind(a.sym("loop"));
    // Visible progress marker.
    a.instr(op::INCL, {Op::rel(a.sym("counter"))});
    // Some computation.
    a.instr(op::MOVL, {Op::imm(50), Op::reg(R3)});
    a.instr(op::CLRL, {Op::reg(R6)});
    a.bind(a.sym("inner"));
    a.instr(op::ADDL2, {Op::reg(R3), Op::reg(R6)});
    a.instr(op::SOBGTR, {Op::reg(R3), Op::branch(a.sym("inner"))});
    // Services.
    a.instr(op::CHMK, {Op::imm(abi::sysGetTime)});
    a.instr(op::MOVAB, {Op::rel(a.sym("buf")), Op::reg(R1)});
    a.instr(op::CHMK, {Op::imm(abi::sysGets)});
    a.instr(op::MOVAB, {Op::rel(a.sym("buf")), Op::reg(R1)});
    a.instr(op::MOVL, {Op::imm(16), Op::reg(R2)});
    a.instr(op::CHMK, {Op::imm(abi::sysPuts)});
    if (with_wait)
        a.instr(op::CHMK, {Op::imm(abi::sysWaitTerm)});
    a.instr(op::BRW, {Op::branch(a.sym("loop"))});

    UserProgram prog;
    prog.entry = a.addrOf(a.sym("entry"));
    prog.image = a.finish();
    prog.terminalId = terminal;
    return prog;
}

} // anonymous namespace

TEST(VmsLite, BootAndTimeshare)
{
    Cpu780 cpu;
    UpcMonitor monitor;
    cpu.setCycleSink(&monitor);

    VmsConfig cfg;
    cfg.timerIntervalCycles = 5000;
    cfg.quantumTicks = 2;
    VmsLite os(cpu, monitor, cfg);
    os.addProcess(makeUserProgram(0, false));
    os.addProcess(makeUserProgram(1, false));
    os.boot();

    cpu.run(400000);
    ASSERT_FALSE(cpu.halted());

    // Both processes made progress.
    uint32_t counter_off = 4; // after the leading BRW + align
    uint32_t c0 =
        cpu.mem().phys().read(os.processImagePa(0) + counter_off, 4);
    uint32_t c1 =
        cpu.mem().phys().read(os.processImagePa(1) + counter_off, 4);
    EXPECT_GT(c0, 0u);
    EXPECT_GT(c1, 0u);

    // The clock ticked and context switches happened.
    EXPECT_GT(os.ticks(), 10u);
    EXPECT_GT(cpu.hw().contextSwitches, 5u);
    EXPECT_GT(cpu.hw().interrupts, 10u);
    EXPECT_GT(cpu.hw().chmkCalls, 0u);
}

TEST(VmsLite, TerminalWaitAndWake)
{
    Cpu780 cpu;
    UpcMonitor monitor;
    cpu.setCycleSink(&monitor);

    VmsConfig cfg;
    cfg.timerIntervalCycles = 5000;
    VmsLite os(cpu, monitor, cfg);
    os.addProcess(makeUserProgram(7, true));
    os.boot();

    // Let the process run until it blocks on the terminal.
    cpu.run(120000);
    uint32_t c_before =
        cpu.mem().phys().read(os.processImagePa(0) + 4, 4);
    EXPECT_GT(c_before, 0u);

    // With no input it must stay blocked (Null process running,
    // monitor gated off).
    cpu.run(100000);
    uint32_t c_idle =
        cpu.mem().phys().read(os.processImagePa(0) + 4, 4);
    EXPECT_EQ(c_idle, c_before);
    EXPECT_FALSE(monitor.collecting());

    // Wake it through the terminal; it should advance again.
    os.postTerminalLine(7);
    cpu.run(200000);
    uint32_t c_after =
        cpu.mem().phys().read(os.processImagePa(0) + 4, 4);
    EXPECT_GT(c_after, c_before);
}

TEST(VmsLite, HistogramSeesOsEvents)
{
    Cpu780 cpu;
    UpcMonitor monitor;
    cpu.setCycleSink(&monitor);

    VmsConfig cfg;
    cfg.timerIntervalCycles = 4000;
    cfg.quantumTicks = 2;
    VmsLite os(cpu, monitor, cfg);
    os.addProcess(makeUserProgram(0, false));
    os.addProcess(makeUserProgram(1, false));
    os.boot();
    cpu.run(500000);

    HistogramAnalyzer an(cpu.controlStore(), monitor.histogram());
    EXPECT_GT(an.instructions(), 10000u);
    // Interrupt and context-switch headways are finite and sane.
    EXPECT_GT(an.headwayInterrupts(), 10.0);
    EXPECT_GT(an.headwayContextSwitches(), an.headwayInterrupts());
    // The SYSTEM group appears (CHMK/REI/MTPR/LDPCTX...).
    EXPECT_GT(an.groupFraction(Group::System), 0.0);
    // Table 8 sanity: the total equals cycles/instruction.
    double total = 0.0;
    for (size_t r = 0; r < static_cast<size_t>(Row::NumRows); ++r)
        total += an.rowTotal(static_cast<Row>(r));
    EXPECT_NEAR(total, an.cyclesPerInstruction(), 1e-9);
    EXPECT_GT(an.cyclesPerInstruction(), 4.0);
    EXPECT_LT(an.cyclesPerInstruction(), 40.0);
}

} // namespace vax::test
