/**
 * @file
 * Instruction-tracer tests: hook firing, ring bounding, formatting,
 * and cross-validation of the trace against the UPC histogram.
 */

#include <gtest/gtest.h>

#include "cpu/tracer.hh"
#include "tests/sim_test_util.hh"
#include "upc/analyzer.hh"

namespace vax::test
{

using Op = Operand;

TEST(Tracer, RecordsEveryInstruction)
{
    BareMachine m;
    InstructionTracer tracer(256);
    tracer.attach(*m.cpu);
    auto &a = m.asmblr;
    for (int i = 0; i < 12; ++i)
        a.instr(op::INCL, {Op::reg(R1)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(tracer.total(), 13u);
    ASSERT_EQ(tracer.records().size(), 13u);
    // PCs are sequential (INCL R1 is two bytes).
    for (unsigned i = 1; i < 12; ++i) {
        EXPECT_EQ(tracer.records()[i].pc,
                  tracer.records()[i - 1].pc + 2);
    }
    EXPECT_EQ(tracer.records().back().opcode, op::HALT);
}

TEST(Tracer, RingIsBounded)
{
    BareMachine m;
    InstructionTracer tracer(8);
    tracer.attach(*m.cpu);
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(50), Op::reg(R3)});
    a.bind(a.sym("l"));
    a.instr(op::SOBGTR, {Op::reg(R3), Op::branch(a.sym("l"))});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(tracer.total(), 52u);
    EXPECT_EQ(tracer.records().size(), 8u);
    // The last record is the HALT.
    EXPECT_EQ(tracer.records().back().opcode, op::HALT);
}

TEST(Tracer, FormatsDisassembly)
{
    BareMachine m;
    InstructionTracer tracer;
    tracer.attach(*m.cpu);
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::lit(7), Op::reg(R2)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    auto lines = tracer.format([&](VirtAddr va) {
        return m.cpu->mem().phys().readByte(va);
    });
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("MOVL S^#7, R2"), std::string::npos);
    EXPECT_NE(lines[1].find("HALT"), std::string::npos);
    EXPECT_NE(lines[0].find(" K "), std::string::npos); // kernel mode
}

TEST(Tracer, AgreesWithHistogram)
{
    BareMachine m;
    InstructionTracer tracer(100000);
    tracer.attach(*m.cpu);
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(200), Op::reg(R3)});
    a.bind(a.sym("l"));
    a.instr(op::ADDL2, {Op::lit(1), Op::reg(R1)});
    a.instr(op::SOBGTR, {Op::reg(R3), Op::branch(a.sym("l"))});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    HistogramAnalyzer an(m.cpu->controlStore(), m.monitor.histogram());
    EXPECT_EQ(tracer.total(), an.instructions());
}

TEST(Tracer, ReportsDroppedRecords)
{
    BareMachine m;
    InstructionTracer tracer(8);
    tracer.attach(*m.cpu);
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(50), Op::reg(R3)});
    a.bind(a.sym("l"));
    a.instr(op::SOBGTR, {Op::reg(R3), Op::branch(a.sym("l"))});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(tracer.dropped(), tracer.total() - 8);
    auto lines = tracer.format([&](VirtAddr va) {
        return m.cpu->mem().phys().readByte(va);
    });
    // A truncated trace announces itself on the first line.
    ASSERT_EQ(lines.size(), 9u);
    EXPECT_NE(lines[0].find("44 earlier records dropped"),
              std::string::npos);
}

TEST(Tracer, FullRingReportsNoDrops)
{
    InstructionTracer tracer(4);
    tracer.record(1, 0x100, op::NOP, CpuMode::Kernel);
    EXPECT_EQ(tracer.dropped(), 0u);
    auto lines = tracer.format([](VirtAddr) -> uint8_t {
        return op::NOP;
    });
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].find("dropped"), std::string::npos);
}

TEST(Tracer, AttachIsIdempotent)
{
    BareMachine m;
    InstructionTracer tracer(256);
    tracer.attach(*m.cpu);
    tracer.attach(*m.cpu); // second attach replaces, never stacks
    auto &a = m.asmblr;
    for (int i = 0; i < 5; ++i)
        a.instr(op::INCL, {Op::reg(R1)});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    EXPECT_EQ(tracer.total(), 6u);
}

TEST(Tracer, ClearResets)
{
    InstructionTracer tracer(4);
    tracer.record(1, 0x100, op::NOP, CpuMode::User);
    EXPECT_EQ(tracer.total(), 1u);
    tracer.clear();
    EXPECT_EQ(tracer.total(), 0u);
    EXPECT_TRUE(tracer.records().empty());
}

} // namespace vax::test
