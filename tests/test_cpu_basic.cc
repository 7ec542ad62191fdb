/**
 * @file
 * End-to-end smoke tests of the CPU: small assembled programs run to
 * HALT and architectural state is checked.
 */

#include <gtest/gtest.h>

#include "tests/sim_test_util.hh"

namespace vax::test
{

using Op = Operand;

TEST(CpuBasic, MovAndAdd)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(5), Op::reg(R1)});
    a.instr(op::ADDL2, {Op::imm(3), Op::reg(R1)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R1), 8u);
}

TEST(CpuBasic, LiteralAndRegisterModes)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::lit(42), Op::reg(R2)});
    a.instr(op::MOVL, {Op::reg(R2), Op::reg(R3)});
    a.instr(op::SUBL3, {Op::lit(2), Op::reg(R3), Op::reg(R4)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R2), 42u);
    EXPECT_EQ(m.gpr(R3), 42u);
    EXPECT_EQ(m.gpr(R4), 40u);
}

TEST(CpuBasic, MemoryReadWrite)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(0x3000), Op::reg(R0)});
    a.instr(op::MOVL, {Op::imm(0xDEADBEEF), Op::regDef(R0)});
    a.instr(op::MOVL, {Op::regDef(R0), Op::reg(R1)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.readLong(0x3000), 0xDEADBEEFu);
    EXPECT_EQ(m.gpr(R1), 0xDEADBEEFu);
}

TEST(CpuBasic, LoopWithSobgtr)
{
    // Sum 1..10 with a SOBGTR loop.
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::CLRL, {Op::reg(R1)});
    a.instr(op::MOVL, {Op::imm(10), Op::reg(R2)});
    a.bind(a.sym("loop"));
    a.instr(op::ADDL2, {Op::reg(R2), Op::reg(R1)});
    a.instr(op::SOBGTR, {Op::reg(R2), Op::branch(a.sym("loop"))});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R1), 55u);
    EXPECT_EQ(m.gpr(R2), 0u);
}

TEST(CpuBasic, ConditionalBranches)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(7), Op::reg(R0)});
    a.instr(op::CMPL, {Op::reg(R0), Op::imm(7)});
    a.instr(op::BEQL, {Op::branch(a.sym("eq"))});
    a.instr(op::MOVL, {Op::imm(111), Op::reg(R1)});
    a.instr(op::HALT);
    a.bind(a.sym("eq"));
    a.instr(op::MOVL, {Op::imm(222), Op::reg(R1)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R1), 222u);
}

TEST(CpuBasic, SubroutineLinkage)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::BSBW, {Op::branch(a.sym("sub"))});
    a.instr(op::MOVL, {Op::imm(5), Op::reg(R2)});
    a.instr(op::HALT);
    a.bind(a.sym("sub"));
    a.instr(op::MOVL, {Op::imm(9), Op::reg(R1)});
    a.instr(op::RSB);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R1), 9u);
    EXPECT_EQ(m.gpr(R2), 5u);
}

TEST(CpuBasic, ProcedureCallReturn)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::PUSHL, {Op::imm(21)});
    a.instr(op::CALLS, {Op::imm(1), Op::rel(a.sym("proc"))});
    a.instr(op::HALT);
    a.bind(a.sym("proc"));
    a.entryMask(1u << 2 | 1u << 3); // save R2, R3
    a.instr(op::MOVL, {Op::disp(4, AP), Op::reg(R0)});
    a.instr(op::ADDL2, {Op::reg(R0), Op::reg(R0)});
    a.instr(op::MOVL, {Op::imm(77), Op::reg(R2)}); // clobber saved reg
    a.instr(op::RET);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R0), 42u);
    EXPECT_EQ(m.gpr(R2), 0u); // restored by RET
    EXPECT_EQ(m.gpr(SP), 0x20000u); // stack fully popped
}

TEST(CpuBasic, CharacterMove)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVC3, {Op::imm(16), Op::rel(a.sym("src")), Op::rel(a.sym("dst"))});
    a.instr(op::HALT);
    a.align(4);
    a.bind(a.sym("src"));
    a.ascii("hello, vax-11/78");
    a.align(4);
    a.bind(a.sym("dst"));
    a.space(16);
    ASSERT_TRUE(m.run());
    for (unsigned i = 0; i < 16; ++i) {
        EXPECT_EQ(m.cpu->mem().phys().readByte(
                      m.asmblr.addrOf(m.asmblr.sym("dst")) + i),
                  m.cpu->mem().phys().readByte(
                      m.asmblr.addrOf(m.asmblr.sym("src")) + i));
    }
    EXPECT_EQ(m.gpr(R0), 0u);
}

TEST(CpuBasic, CaseBranch)
{
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(1), Op::reg(R0)});
    a.instr(op::CASEL, {Op::reg(R0), Op::lit(0), Op::lit(2)});
    a.caseTable({a.sym("case0"), a.sym("case1"), a.sym("case2")});
    a.instr(op::MOVL, {Op::imm(99), Op::reg(R1)}); // fall-through
    a.instr(op::HALT);
    a.bind(a.sym("case0"));
    a.instr(op::MOVL, {Op::imm(10), Op::reg(R1)});
    a.instr(op::HALT);
    a.bind(a.sym("case1"));
    a.instr(op::MOVL, {Op::imm(11), Op::reg(R1)});
    a.instr(op::HALT);
    a.bind(a.sym("case2"));
    a.instr(op::MOVL, {Op::imm(12), Op::reg(R1)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(m.gpr(R1), 11u);
}

TEST(CpuBasic, MonitorCountsInstructions)
{
    BareMachine m;
    auto &a = m.asmblr;
    for (int i = 0; i < 10; ++i)
        a.instr(op::MOVL, {Op::lit(1), Op::reg(R1)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    uint64_t iid = m.monitor.normalCount(
        m.cpu->controlStore().entries.iid);
    EXPECT_EQ(iid, 11u); // 10 moves + HALT
    EXPECT_EQ(m.cpu->hw().instructions, 11u);
}

} // namespace vax::test
