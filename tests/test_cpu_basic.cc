/**
 * @file
 * End-to-end smoke tests of the CPU: small assembled programs run to
 * HALT and architectural state is checked; the IB's longword intake
 * against its byte-wise definition.
 */

#include <gtest/gtest.h>

#include "support/snapshot.hh"
#include "tests/sim_test_util.hh"
#include "upc/analyzer.hh"

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

TEST(CpuBasic, HistogramInstructionsMatchDecodeCount)
{
    // The analyzer counts instructions from the histogram alone; the
    // EBOX counts them at decode.  A branchy loop must agree exactly.
    BareMachine m;
    auto &a = m.asmblr;
    a.instr(op::MOVL, {Op::imm(200), Op::reg(R3)});
    a.bind(a.sym("l"));
    a.instr(op::ADDL2, {Op::lit(1), Op::reg(R1)});
    a.instr(op::SOBGTR, {Op::reg(R3), Op::branch(a.sym("l"))});
    a.instr(op::HALT);
    ASSERT_TRUE(m.run());
    HistogramAnalyzer an(m.cpu->controlStore(), m.monitor.histogram());
    EXPECT_EQ(m.cpu->hw().instructions, 402u); // MOVL, 200 x 2, HALT
    EXPECT_EQ(an.instructions(), m.cpu->hw().instructions);
}

namespace
{

/** The IB ring as plain fields, with the byte-wise intake that
 *  pushLongword replaces: canAccept() then push() per byte. */
struct ByteRing
{
    std::vector<uint8_t> bytes;
    unsigned head = 0;
    unsigned count = 0;
    unsigned skip = 0;

    bool
    canAccept() const
    {
        return skip > 0 || count < bytes.size();
    }

    void
    push(uint8_t b)
    {
        if (skip > 0) {
            --skip;
            return;
        }
        bytes[(head + count) % bytes.size()] = b;
        ++count;
    }

    unsigned
    pushLongword(uint32_t data, unsigned offset)
    {
        unsigned n = 0;
        for (unsigned i = offset; i < 4; ++i) {
            if (!canAccept())
                break;
            push(static_cast<uint8_t>(data >> (8 * i)));
            ++n;
        }
        return n;
    }

    /** The ring in InstructionBuffer's checkpoint layout. */
    std::vector<uint8_t>
    image() const
    {
        snap::Serializer s;
        s.beginSection("ib");
        s.putU32(static_cast<uint32_t>(bytes.size()));
        s.putU32(head);
        s.putU32(count);
        s.putU32(skip);
        s.putBytes(bytes.data(), bytes.size());
        s.endSection();
        return s.finish();
    }
};

std::vector<uint8_t>
ibImage(const InstructionBuffer &ib)
{
    snap::Serializer s;
    s.beginSection("ib");
    ib.save(s);
    s.endSection();
    return s.finish();
}

} // anonymous namespace

TEST(InstructionBuffer, PushLongwordMatchesBytewiseIntake)
{
    // Every ring state (head, count, pending skip, including states
    // only a checkpoint can produce) and every fetch offset.
    const uint32_t data = 0x44332211;
    unsigned cases = 0;
    for (unsigned cap : {4u, 8u, 16u}) {
        for (unsigned head = 0; head < cap; ++head) {
            for (unsigned count = 0; count <= cap; ++count) {
                for (unsigned skip = 0; skip <= 6; ++skip) {
                    for (unsigned offset = 0; offset < 4; ++offset) {
                        ByteRing ref;
                        ref.bytes.resize(cap);
                        for (unsigned i = 0; i < cap; ++i)
                            ref.bytes[i] = static_cast<uint8_t>(0xA0 + i);
                        ref.head = head;
                        ref.count = count;
                        ref.skip = skip;

                        InstructionBuffer ib(cap);
                        snap::Deserializer d(ref.image());
                        d.beginSection("ib");
                        ib.restore(d);
                        d.endSection();

                        unsigned want = ref.pushLongword(data, offset);
                        unsigned got = ib.pushLongword(data, offset);
                        ASSERT_EQ(got, want)
                            << "cap " << cap << " head " << head
                            << " count " << count << " skip " << skip
                            << " offset " << offset;
                        ASSERT_EQ(ibImage(ib), ref.image())
                            << "cap " << cap << " head " << head
                            << " count " << count << " skip " << skip
                            << " offset " << offset;
                        ++cases;
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, (4 * 5 + 8 * 9 + 16 * 17) * 7 * 4u);
}

} // namespace vax::test
