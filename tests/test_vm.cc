/**
 * @file
 * Virtual-memory tests on the mapped machine: TB-fill microcode paths
 * (system, process, double miss), miss accounting in the MemMgmt row,
 * I-stream misses, and protection.
 */

#include <gtest/gtest.h>

#include "arch/assembler.hh"
#include "cpu/cpu.hh"
#include "cpu/pregs.hh"
#include "mem/page_table.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"

namespace vax::test
{

using Op = Operand;

namespace
{

/**
 * A minimal mapped machine: an SPT at 0x1000 linear-mapping all of
 * physical memory (kernel), and one P0 page table at 0x8000 mapping
 * 64 user pages onto physical 0x40000+.
 */
struct MappedMachine
{
    MappedMachine()
    {
        auto &phys = cpu.mem().phys();
        uint32_t pages = cpu.mem().config().memBytes / pageBytes;
        for (uint32_t i = 0; i < pages; ++i)
            phys.write(0x1000 + 4 * i, pte::make(i, false, false), 4);
        for (uint32_t j = 0; j < 64; ++j) {
            phys.write(0x8000 + 4 * j,
                       pte::make((0x40000 >> pageShift) + j, true,
                                 true),
                       4);
        }
        cpu.setCycleSink(&monitor);
        Ebox &e = cpu.ebox();
        e.setPrRaw(pr::SBR, 0x1000);
        e.setPrRaw(pr::SLR, pages);
        e.setPrRaw(pr::P0BR, systemBase + 0x8000); // system VA
        e.setPrRaw(pr::P0LR, 64);
    }

    /** Load code at system VA and run it in kernel mode. */
    bool
    runKernel(Assembler &a, uint64_t max_cycles = 200000)
    {
        auto image = a.finish();
        cpu.mem().phys().load(a.base() - systemBase, image);
        cpu.reset(a.base());
        cpu.ebox().setGpr(SP, systemBase + 0x30000);
        return cpu.run(max_cycles);
    }

    Cpu780 cpu;
    UpcMonitor monitor;
};

} // anonymous namespace

TEST(VirtualMemory, SystemSpaceFillAndReuse)
{
    MappedMachine m;
    Assembler a(systemBase + 0x20000);
    // Two reads of the same system page: one TB miss total.
    a.instr(op::MOVL, {Op::absolute(systemBase + 0x5000),
                       Op::reg(R1)});
    a.instr(op::MOVL, {Op::absolute(systemBase + 0x5004),
                       Op::reg(R2)});
    a.instr(op::HALT);
    m.cpu.mem().phys().write(0x5000, 123, 4);
    m.cpu.mem().phys().write(0x5004, 456, 4);
    ASSERT_TRUE(m.runKernel(a));
    EXPECT_EQ(m.cpu.ebox().gpr(R1), 123u);
    EXPECT_EQ(m.cpu.ebox().gpr(R2), 456u);
    // D-stream misses: the data page (plus the stack page if touched,
    // but this program does not push).  I-stream: the code page.
    const auto &tb = m.cpu.mem().tb().stats();
    EXPECT_EQ(tb.missesD, 1u);
    EXPECT_GE(tb.missesI, 1u);
}

TEST(VirtualMemory, ProcessSpaceDoubleMiss)
{
    MappedMachine m;
    Assembler a(systemBase + 0x20000);
    // A P0 access from kernel mode: the process PTE lives at a system
    // VA, so the first fill also misses on the page-table page (the
    // double-miss path through MM.sptread).
    a.instr(op::MOVL, {Op::absolute(0x00000100), Op::reg(R1)});
    a.instr(op::HALT);
    m.cpu.mem().phys().write(0x40100, 0xABCD, 4);
    ASSERT_TRUE(m.runKernel(a));
    EXPECT_EQ(m.cpu.ebox().gpr(R1), 0xABCDu);

    HistogramAnalyzer an(m.cpu.controlStore(), m.monitor.histogram());
    EXPECT_GT(an.tbMissPerInstr(), 0.0);
    // The MemMgmt row collected the service cycles.
    EXPECT_GT(an.rowTotal(Row::MemMgmt), 0.0);
    EXPECT_GT(an.tbServiceCyclesPerMiss(), 8.0);
    EXPECT_LT(an.tbServiceCyclesPerMiss(), 40.0);
}

TEST(VirtualMemory, TbMissCountsMatchHistogramMarks)
{
    MappedMachine m;
    Assembler a(systemBase + 0x20000);
    // Touch several distinct P0 pages.
    a.instr(op::MOVL, {Op::imm(0), Op::reg(R2)});
    a.instr(op::MOVL, {Op::imm(8), Op::reg(R3)});
    a.bind(a.sym("l"));
    a.instr(op::MOVL, {Op::disp(0, R2).idx(R0), Op::reg(R1)});
    a.instr(op::ADDL2, {Op::imm(512), Op::reg(R2)});
    a.instr(op::SOBGTR, {Op::reg(R3), Op::branch(a.sym("l"))});
    a.instr(op::HALT);
    ASSERT_TRUE(m.runKernel(a));
    HistogramAnalyzer an(m.cpu.controlStore(), m.monitor.histogram());
    const auto &tb = m.cpu.mem().tb().stats();
    uint64_t hist_misses = static_cast<uint64_t>(
        an.tbMissPerInstr() * an.instructions() + 0.5);
    EXPECT_EQ(hist_misses, tb.missesD + tb.missesI);
    EXPECT_GE(tb.missesD, 8u);
}

TEST(VirtualMemory, IStreamMissServiced)
{
    MappedMachine m;
    Assembler a(systemBase + 0x20000);
    // Jump to a far (unmapped-in-TB) system page: the I-stream TB
    // miss is serviced when decode starves.
    a.instr(op::JMP, {Op::absolute(systemBase + 0x24000)});
    auto image = a.finish();
    m.cpu.mem().phys().load(0x20000, image);
    Assembler b(systemBase + 0x24000);
    b.instr(op::MOVL, {Op::imm(7), Op::reg(R1)});
    b.instr(op::HALT);
    auto image2 = b.finish();
    m.cpu.mem().phys().load(0x24000, image2);
    m.cpu.reset(systemBase + 0x20000);
    m.cpu.ebox().setGpr(SP, systemBase + 0x30000);
    ASSERT_TRUE(m.cpu.run(100000));
    EXPECT_EQ(m.cpu.ebox().gpr(R1), 7u);
    EXPECT_GE(m.cpu.mem().tb().stats().missesI, 2u);
}

TEST(VirtualMemory, UserCannotTouchSystemSpace)
{
    // User-mode access to a kernel-only page must fault; the
    // simulator treats that as fatal (workloads must not do it).
    MappedMachine m;
    Assembler a(0x0); // user code in P0
    a.instr(op::MOVL, {Op::absolute(systemBase + 0x5000),
                       Op::reg(R1)});
    a.instr(op::HALT);
    auto image = a.finish();
    m.cpu.mem().phys().load(0x40000, image);
    m.cpu.reset(0, CpuMode::User);
    m.cpu.ebox().setGpr(SP, 0x8000);
    EXPECT_DEATH(m.cpu.run(10000), "access violation");
}

TEST(VirtualMemory, TbInvalidateForcesRefill)
{
    MappedMachine m;
    Assembler a(systemBase + 0x20000);
    a.instr(op::MOVL, {Op::absolute(0x100), Op::reg(R1)});
    a.instr(op::MTPR, {Op::imm(0x100), Op::imm(pr::TBIS)});
    a.instr(op::MOVL, {Op::absolute(0x100), Op::reg(R2)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.runKernel(a));
    // Two D-stream misses on the same page: the explicit invalidate
    // forced the second fill.
    EXPECT_GE(m.cpu.mem().tb().stats().missesD, 2u);
}

} // namespace vax::test
