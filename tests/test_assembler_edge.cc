/**
 * @file
 * Assembler edge cases: displacement-size selection at exact
 * boundaries, immediate sizing by operand type, index-prefix
 * encoding, and error paths.
 */

#include <gtest/gtest.h>

#include "arch/assembler.hh"
#include "arch/disasm.hh"

namespace vax::test
{

using Op = Operand;

namespace
{

std::vector<uint8_t>
assembleOne(uint8_t opcode, const std::vector<Operand> &ops)
{
    Assembler a(0x1000);
    a.instr(opcode, ops);
    return a.finish();
}

} // anonymous namespace

TEST(AssemblerEdge, DisplacementSizeBoundaries)
{
    // 127 fits in a byte displacement (mode 0xA).
    auto img = assembleOne(op::MOVL, {Op::disp(127, R2), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xA2);
    EXPECT_EQ(img.size(), 4u); // opcode + spec byte + disp + reg

    // 128 needs a word displacement (mode 0xC).
    img = assembleOne(op::MOVL, {Op::disp(128, R2), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xC2);

    // -128 still fits in a byte.
    img = assembleOne(op::MOVL, {Op::disp(-128, R2), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xA2);
    EXPECT_EQ(img[2], 0x80);

    // -129 needs a word.
    img = assembleOne(op::MOVL, {Op::disp(-129, R2), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xC2);

    // 32767 fits in a word; 32768 needs a longword (mode 0xE).
    img = assembleOne(op::MOVL, {Op::disp(32767, R2), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xC2);
    img = assembleOne(op::MOVL, {Op::disp(32768, R2), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xE2);
}

TEST(AssemblerEdge, DeferredUsesBMode)
{
    auto img = assembleOne(op::MOVL,
                           {Op::dispDef(8, R3), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xB3);
    img = assembleOne(op::MOVL, {Op::dispDef(300, R3), Op::reg(R1)});
    EXPECT_EQ(img[1], 0xD3);
}

TEST(AssemblerEdge, ImmediateSizeFollowsOperandType)
{
    // MOVB immediate: one data byte after 0x8F.
    auto img = assembleOne(op::MOVB, {Op::imm(0x12), Op::reg(R1)});
    EXPECT_EQ(img[1], 0x8F);
    EXPECT_EQ(img.size(), 1u + 2u + 1u);
    // MOVW: two bytes; MOVL: four.
    img = assembleOne(op::MOVW, {Op::imm(0x1234), Op::reg(R1)});
    EXPECT_EQ(img.size(), 1u + 3u + 1u);
    img = assembleOne(op::MOVL, {Op::imm(0x12345678), Op::reg(R1)});
    EXPECT_EQ(img.size(), 1u + 5u + 1u);
}

TEST(AssemblerEdge, IndexPrefixPrecedesBase)
{
    auto img = assembleOne(op::MOVL,
                           {Op::disp(4, R2).idx(R5), Op::reg(R1)});
    EXPECT_EQ(img[1], 0x45); // index prefix, Rx = R5
    EXPECT_EQ(img[2], 0xA2); // byte displacement off R2
}

TEST(AssemblerEdge, RegisterModesEncode)
{
    EXPECT_EQ(assembleOne(op::TSTL, {Op::reg(R9)})[1], 0x59);
    EXPECT_EQ(assembleOne(op::TSTL, {Op::regDef(R9)})[1], 0x69);
    EXPECT_EQ(assembleOne(op::TSTL, {Op::autoDec(R9)})[1], 0x79);
    EXPECT_EQ(assembleOne(op::TSTL, {Op::autoInc(R9)})[1], 0x89);
    EXPECT_EQ(assembleOne(op::TSTL, {Op::autoIncDef(R9)})[1], 0x99);
    EXPECT_EQ(assembleOne(op::TSTL, {Op::absolute(0x100)})[1], 0x9F);
    EXPECT_EQ(assembleOne(op::TSTL, {Op::lit(63)})[1], 0x3F);
}

TEST(AssemblerEdge, ErrorPathsAreFatal)
{
    EXPECT_DEATH({
        Assembler a(0);
        a.instr(op::MOVL, {Op::lit(1), Op::lit(2)}); // literal dest
        a.finish();
    }, "literal");
    EXPECT_DEATH({
        Assembler a(0);
        a.bind(a.sym("x"));
        a.bind(a.sym("x")); // duplicate
    }, "duplicate");
    EXPECT_DEATH({
        Assembler a(0);
        a.instr(op::BRB, {Op::branch(a.sym("far"))});
        a.space(200);
        a.bind(a.sym("far"));
        a.finish(); // byte branch out of range
    }, "out of range");
    EXPECT_DEATH({
        Assembler a(0);
        a.instr(op::BRB, {Op::branch(a.sym("nowhere"))});
        a.finish();
    }, "undefined label");
}

TEST(AssemblerEdge, RelativeDisassemblesToTarget)
{
    Assembler a(0x2000);
    a.instr(op::TSTL, {Op::rel(a.sym("target"))});
    a.bind(a.sym("target"));
    a.lword(1);
    auto img = a.finish();
    auto d = disassemble(0x2000, [&](VirtAddr va) {
        return img.at(va - 0x2000);
    });
    // Word PC-relative: mode 0xCF.
    EXPECT_EQ(img[1], 0xCF);
    EXPECT_TRUE(d.valid);
    EXPECT_EQ(d.length, 4u);
}

TEST(AssemblerEdge, EntryMaskAndSpaceFill)
{
    Assembler a(0);
    a.entryMask(0x0C);
    a.space(3, 0xEE);
    auto img = a.finish();
    ASSERT_EQ(img.size(), 5u);
    EXPECT_EQ(img[0], 0x0C);
    EXPECT_EQ(img[1], 0x00);
    EXPECT_EQ(img[2], 0xEE);
}

} // namespace vax::test
