/**
 * @file
 * Architecture-layer tests: opcode-table invariants (parameterized
 * over all implemented opcodes), specifier-byte classification over
 * all 256 encodings, F_floating and packed-decimal round trips, and
 * assembler/disassembler agreement.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/assembler.hh"
#include "arch/decimal.hh"
#include "arch/disasm.hh"
#include "arch/ffloat.hh"
#include "arch/opcodes.hh"
#include "arch/specifiers.hh"
#include "tests/sim_test_util.hh"

namespace vax::test
{

// ---------------- opcode-table invariants ----------------

class OpcodeTableTest : public ::testing::TestWithParam<int>
{
};

TEST_P(OpcodeTableTest, InvariantsHold)
{
    const OpcodeInfo &info = opcodeInfo(
        static_cast<uint8_t>(GetParam()));
    ASSERT_TRUE(info.valid);

    // Branch displacement, if any, is the last operand.
    for (unsigned i = 0; i < info.numOperands; ++i) {
        if (info.operands[i].access == Access::Branch) {
            EXPECT_EQ(i, info.numOperands - 1u);
        }
    }
    EXPECT_EQ(info.numSpecifiers + (info.bdispBytes ? 1 : 0),
              info.numOperands);
    EXPECT_LE(info.numSpecifiers, 6u);
    EXPECT_LE(info.bdispBytes, 2u);
    EXPECT_NE(info.flow, ExecFlow::None);
    // PC-changing instructions carry a class; group matches Table 2's
    // assignment of classes to groups.
    if (info.pck == PcChangeKind::BitBranch) {
        EXPECT_EQ(info.group, Group::Field);
    }
    if (info.pck == PcChangeKind::ProcCallRet) {
        EXPECT_EQ(info.group, Group::CallRet);
    }
    if (info.pck == PcChangeKind::SystemBr) {
        EXPECT_EQ(info.group, Group::System);
    }
    // Mnemonic resolves back to this encoding.
    EXPECT_EQ(opcodeByMnemonic(info.mnemonic), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, OpcodeTableTest,
                         ::testing::ValuesIn(implementedOpcodes()),
                         opcodeCaseName);

TEST(OpcodeTable, GroupsArePopulated)
{
    unsigned count[static_cast<size_t>(Group::NumGroups)] = {};
    for (unsigned i = 0; i < 256; ++i) {
        const OpcodeInfo &info = opcodeInfo(static_cast<uint8_t>(i));
        if (info.valid)
            ++count[static_cast<size_t>(info.group)];
    }
    for (unsigned g = 0; g < static_cast<unsigned>(Group::NumGroups);
         ++g) {
        EXPECT_GT(count[g], 0u)
            << "group " << groupName(static_cast<Group>(g));
    }
}

TEST(OpcodeTable, SharedFlowsShareGroup)
{
    // Every flow maps to exactly one group (the analyzer depends on
    // this to compute Table 1 from flow entries).
    Group flow_group[static_cast<size_t>(ExecFlow::NumFlows)];
    bool seen[static_cast<size_t>(ExecFlow::NumFlows)] = {};
    for (unsigned i = 0; i < 256; ++i) {
        const OpcodeInfo &info = opcodeInfo(static_cast<uint8_t>(i));
        if (!info.valid)
            continue;
        size_t f = static_cast<size_t>(info.flow);
        if (seen[f]) {
            EXPECT_EQ(flow_group[f], info.group)
                << "flow " << execFlowName(info.flow);
        }
        flow_group[f] = info.group;
        seen[f] = true;
    }
}

TEST(OpcodeTable, MnemonicLookupIsCaseInsensitive)
{
    EXPECT_EQ(opcodeByMnemonic("movl"), op::MOVL);
    EXPECT_EQ(opcodeByMnemonic("MoVl"), op::MOVL);
    EXPECT_EQ(opcodeByMnemonic("nosuch"), -1);
}

// ---------------- specifier bytes ----------------

class SpecByteTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SpecByteTest, ClassificationConsistent)
{
    uint8_t b = static_cast<uint8_t>(GetParam());
    if (isIndexPrefix(b)) {
        EXPECT_EQ(b >> 4, 4);
        return;
    }
    SpecByte sb = decodeSpecByte(b);
    if (b < 0x40) {
        EXPECT_EQ(sb.mode, AddrMode::ShortLiteral);
        EXPECT_EQ(sb.literal, b & 0x3F);
    }
    if ((b >> 4) == 5) {
        EXPECT_EQ(sb.mode, AddrMode::Register);
    }
    if (b == 0x8F) {
        EXPECT_EQ(sb.mode, AddrMode::Immediate);
    }
    if (b == 0x9F) {
        EXPECT_EQ(sb.mode, AddrMode::Absolute);
    }
    // Trailing bytes are consistent with the mode.
    unsigned trail = specTrailingBytes(sb.mode, DataType::Long);
    switch (sb.mode) {
      case AddrMode::ByteDisp:
      case AddrMode::ByteDispDef:
        EXPECT_EQ(trail, 1u);
        break;
      case AddrMode::WordDisp:
      case AddrMode::WordDispDef:
        EXPECT_EQ(trail, 2u);
        break;
      case AddrMode::LongDisp:
      case AddrMode::LongDispDef:
      case AddrMode::Absolute:
      case AddrMode::Immediate:
        EXPECT_EQ(trail, 4u);
        break;
      default:
        EXPECT_EQ(trail, 0u);
        break;
    }
    // Category mapping is total.
    EXPECT_LT(static_cast<unsigned>(specCategory(sb.mode)),
              static_cast<unsigned>(SpecCategory::NumCategories));
}

INSTANTIATE_TEST_SUITE_P(AllSpecBytes, SpecByteTest,
                         ::testing::Range(0, 256));

TEST(Specifiers, ImmediateSizeFollowsType)
{
    EXPECT_EQ(specTrailingBytes(AddrMode::Immediate, DataType::Byte),
              1u);
    EXPECT_EQ(specTrailingBytes(AddrMode::Immediate, DataType::Word),
              2u);
    EXPECT_EQ(specTrailingBytes(AddrMode::Immediate, DataType::Quad),
              8u);
}

// ---------------- F_floating ----------------

class FFloatRoundTrip : public ::testing::TestWithParam<double>
{
};

TEST_P(FFloatRoundTrip, PackUnpack)
{
    double d = GetParam();
    uint32_t f = doubleToF(d);
    double back = fToDouble(f);
    if (d == 0.0) {
        EXPECT_EQ(back, 0.0);
    } else {
        // F_floating has a 24-bit mantissa.
        EXPECT_NEAR(back, d, std::fabs(d) * 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Values, FFloatRoundTrip,
    ::testing::Values(0.0, 1.0, -1.0, 0.5, -0.5, 3.14159, -2.71828,
                      1e10, -1e10, 1e-10, 123456.789, -0.000123));

TEST(FFloat, LiteralStyleValues)
{
    // Short-literal expansion range: exponent 128..135, fraction /8.
    for (unsigned lit = 0; lit < 64; ++lit) {
        uint32_t exp = 128 + (lit >> 3);
        uint32_t f = (exp << 7) | ((lit & 7) << 4);
        double d = fToDouble(f);
        double expect =
            (0.5 + (lit & 7) / 16.0) * std::pow(2.0, double(exp) - 128);
        EXPECT_NEAR(d, expect, 1e-9) << "literal " << lit;
    }
}

TEST(FFloat, OverflowSaturates)
{
    uint32_t f = doubleToF(1e300);
    double d = fToDouble(f);
    EXPECT_GT(d, 1e30); // largest F_floating is ~1.7e38
}

TEST(FFloat, UnderflowFlushesToZero)
{
    EXPECT_EQ(doubleToF(1e-300), 0u);
}

TEST(FFloat, ReservedOperandDetected)
{
    EXPECT_TRUE(fIsReserved(0x8000));
    EXPECT_FALSE(fIsReserved(doubleToF(1.0)));
}

// ---------------- packed decimal ----------------

class PackedRoundTrip : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(PackedRoundTrip, EncodeDecode)
{
    int64_t v = GetParam();
    for (unsigned digits : {5u, 9u, 12u, 18u}) {
        int64_t mod = 1;
        for (unsigned i = 0; i < digits && mod < (1LL << 62) / 10; ++i)
            mod *= 10;
        int64_t expect = v % mod;
        auto bytes = intToPacked(v, digits);
        EXPECT_EQ(bytes.size(), packedBytes(digits));
        bool ok = false;
        int64_t back = packedToInt(bytes, digits, &ok);
        EXPECT_TRUE(ok);
        EXPECT_EQ(back, expect) << v << " @ " << digits << " digits";
    }
}

INSTANTIATE_TEST_SUITE_P(Values, PackedRoundTrip,
                         ::testing::Values(0LL, 1LL, -1LL, 42LL,
                                           -42LL, 99999LL, -99999LL,
                                           123456789012LL,
                                           -987654321LL));

TEST(PackedDecimal, InvalidNibbleDetected)
{
    std::vector<uint8_t> bytes = {0xAB, 0x1C};
    bool ok = true;
    packedToInt(bytes, 3, &ok);
    EXPECT_FALSE(ok);
}

// ---------------- assembler / disassembler agreement -----------

TEST(Assembler, DisassemblerRoundTrip)
{
    Assembler a(0x2000);
    a.instr(op::MOVL, {Operand::lit(5), Operand::reg(R3)});
    a.instr(op::ADDL3, {Operand::imm(0x1234), Operand::disp(8, R2),
                        Operand::regDef(R4)});
    a.instr(op::MOVB, {Operand::autoInc(R1), Operand::autoDec(R5)});
    a.instr(op::CMPW, {Operand::absolute(0x3000),
                       Operand::dispDef(-4, R6)});
    a.instr(op::BRB, {Operand::branch(a.sym("self"))});
    a.bind(a.sym("self"));
    a.instr(op::HALT);
    auto image = a.finish();

    auto reader = [&](VirtAddr va) {
        return image.at(va - 0x2000);
    };
    VirtAddr pc = 0x2000;
    std::vector<std::string> expect = {
        "MOVL S^#5, R3",
        "ADDL3 I^#0x1234, B^8(R2), (R4)",
        "MOVB (R1)+, -(R5)",
        "CMPW @#0x3000, @B^-4(R6)",
    };
    for (const auto &e : expect) {
        auto d = disassemble(pc, reader);
        EXPECT_TRUE(d.valid);
        EXPECT_EQ(d.text, e);
        pc += d.length;
    }
}

TEST(Assembler, BranchRangeChecked)
{
    // A byte branch over >127 bytes of padding must be fatal; check
    // that a word branch over the same span is fine.
    Assembler a(0);
    a.instr(op::BRW, {Operand::branch(a.sym("far"))});
    a.space(1000);
    a.bind(a.sym("far"));
    a.instr(op::HALT);
    auto image = a.finish();
    EXPECT_GT(image.size(), 1000u);
}

TEST(Assembler, LabelsAndFixups)
{
    Assembler a(0x100);
    a.addrLong(a.sym("target"));
    a.bind(a.sym("target"));
    a.lword(0xCAFEBABE);
    auto image = a.finish();
    // First longword holds the address of "target" (0x104).
    uint32_t v = image[0] | (image[1] << 8) | (image[2] << 16) |
        (uint32_t(image[3]) << 24);
    EXPECT_EQ(v, 0x104u);
}

TEST(Assembler, CaseTableDisplacements)
{
    Assembler a(0);
    a.caseTable({a.sym("t0"), a.sym("t1")});
    a.bind(a.sym("t0"));
    a.byte(1);
    a.bind(a.sym("t1"));
    a.byte(2);
    auto image = a.finish();
    // Displacements are relative to the table base (address 0).
    EXPECT_EQ(image[0] | (image[1] << 8), 4u);
    EXPECT_EQ(image[2] | (image[3] << 8), 5u);
}

TEST(Assembler, OperandCountMismatchIsFatal)
{
    // fatal() exits; use death test.
    EXPECT_DEATH({
        Assembler a(0);
        a.instr(op::MOVL, {Operand::reg(R1)});
    }, "expects");
}

TEST(Assembler, AlignPads)
{
    Assembler a(0x10);
    a.byte(1);
    a.align(8);
    EXPECT_EQ(a.here() % 8, 0u);
}

} // namespace vax::test
