/**
 * @file
 * Execute-every-opcode sweep: for each of the 130+ implemented
 * opcodes, build a minimal valid instance from its operand signature,
 * run it on the full machine, and require clean completion.  Also
 * checks that the disassembler renders the right mnemonic for the
 * assembled bytes.
 */

#include <gtest/gtest.h>

#include "arch/decimal.hh"
#include "arch/disasm.hh"
#include "arch/ffloat.hh"
#include "cpu/pregs.hh"
#include "tests/sim_test_util.hh"

namespace vax::test
{

using Op = Operand;

namespace
{

/** A safe operand for the given access/type in the sweep harness. */
Operand
operandFor(Assembler &a, const OperandDef &od, unsigned index)
{
    switch (od.access) {
      case Access::Read:
        switch (od.type) {
          case DataType::FFloat:
            return Op::imm(doubleToF(2.0 + index));
          case DataType::Quad:
            return Op::rel(a.sym("qdata"));
          case DataType::Byte:
          case DataType::Word:
          case DataType::Long:
          default:
            // Nonzero and small: safe as a divisor, shift count,
            // length, probe mode, queue pointer, etc.
            return Op::lit(static_cast<uint8_t>(3 + index));
        }
      case Access::Modify:
        return Op::reg(R6);
      case Access::Write:
        return od.type == DataType::Quad ? Op::reg(R2) : Op::reg(R7);
      case Access::Address:
        return Op::rel(a.sym("adata"));
      case Access::Field:
        return Op::reg(R8);
      case Access::Branch:
        return Op::branch(a.sym("next"));
    }
    return Op::reg(R6);
}

} // anonymous namespace

class OpcodeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(OpcodeSweep, ExecutesCleanly)
{
    uint8_t opc = static_cast<uint8_t>(GetParam());
    const OpcodeInfo &info = opcodeInfo(opc);
    ASSERT_TRUE(info.valid);

    BareMachine m;
    auto &a = m.asmblr;

    // Machine state some opcodes need.
    m.cpu->ebox().setPrRaw(pr::PCBB, 0x4000);
    m.cpu->ebox().setPrRaw(pr::SCBB, 0x200);
    m.cpu->ebox().setGpr(R6, 10);
    m.cpu->ebox().setGpr(R7, 3);
    m.cpu->ebox().setGpr(R8, 0x55AA);
    // CHMK vectors to the instruction after itself; CALLS-style
    // returns land on "next" too.
    // (The vector is patched after assembly below.)

    std::vector<Operand> ops;
    for (unsigned i = 0; i < info.numOperands; ++i)
        ops.push_back(operandFor(a, info.operands[i], i));

    // Flows that interpret their address operands need curated ones.
    if (info.flow == ExecFlow::CallG || info.flow == ExecFlow::CallS)
        ops.back() = Op::rel(a.sym("proc"));
    if (info.flow == ExecFlow::Jmp || info.flow == ExecFlow::Jsb)
        ops[0] = Op::rel(a.sym("next"));
    if (info.flow == ExecFlow::InsQue)
        ops = {Op::rel(a.sym("qent")), Op::rel(a.sym("qhdr2"))};
    if (info.flow == ExecFlow::RemQue) {
        // Insert first so there is something valid to remove.
        a.instr(op::INSQUE, {Op::rel(a.sym("qent")), Op::rel(a.sym("qhdr2"))});
        ops[0] = Op::rel(a.sym("qent"));
    }

    VirtAddr test_pc = a.here(); // the instruction under test
    a.instr(opc, ops);
    if (info.flow == ExecFlow::Case) {
        // Selector 3, base 4 -> out of range: falls through past the
        // empty table region.
        a.caseTable({a.sym("next"), a.sym("next")});
    }
    a.bind(a.sym("next"));
    a.instr(op::HALT);

    a.bind(a.sym("proc"));
    a.entryMask(1u << 2);
    a.instr(op::RET);

    a.align(4);
    a.bind(a.sym("adata"));
    for (uint8_t b : intToPacked(42, 12)) // packed for DECIMAL 'ab'
        a.byte(b);
    a.space(64 - packedBytes(12), 'x');   // string bytes for CHARACTER
    a.bind(a.sym("qdata"));
    a.lword(0x11111111);
    a.lword(0x22222222);
    a.bind(a.sym("qhdr2"));
    a.addrLong(a.sym("qhdr2"));
    a.addrLong(a.sym("qhdr2"));
    a.bind(a.sym("qent"));
    a.lword(0);
    a.lword(0);

    // LDPCTX state: a sane kernel SP and resume PC in the PCB.
    m.cpu->mem().phys().write(0x4000 + 0, 0x18000, 4);  // KSP
    m.cpu->mem().phys().write(0x4000 + 64, 0x100, 4);   // PC
    m.cpu->mem().phys().write(0x4000 + 68, 0, 4);       // PSL

    bool halted = m.run(200000);
    EXPECT_TRUE(halted) << info.mnemonic;

    // Disassembler agreement on the first instruction.
    auto reader = [&](VirtAddr va) {
        return m.cpu->mem().phys().readByte(va);
    };
    auto d = disassemble(test_pc, reader);
    EXPECT_TRUE(d.valid) << info.mnemonic;
    EXPECT_EQ(d.text.substr(0, std::string(info.mnemonic).size()),
              info.mnemonic);
}

// HALT ends every sweep program anyway, and BPT faults by design
// (OpcodeSweepExtras.BptFaults).
INSTANTIATE_TEST_SUITE_P(All, OpcodeSweep,
                         ::testing::ValuesIn(implementedOpcodes(
                             {op::HALT, op::BPT})),
                         opcodeCaseName);

TEST(OpcodeSweepExtras, BptFaults)
{
    EXPECT_DEATH({
        BareMachine m;
        m.asmblr.instr(op::BPT);
        m.asmblr.instr(op::HALT);
        m.run();
    }, "breakpoint");
}

TEST(OpcodeSweepExtras, ReservedOpcodeFaults)
{
    // 0xFF is unimplemented; executing it is a reserved-instruction
    // fault.
    EXPECT_DEATH({
        BareMachine m;
        m.asmblr.byte(0xFF);
        m.run();
    }, "reserved instruction");
}

TEST(OpcodeSweepExtras, HaltInUserModeFaults)
{
    EXPECT_DEATH({
        BareMachine m;
        m.asmblr.instr(op::HALT);
        auto image = m.asmblr.finish();
        m.cpu->mem().phys().load(m.asmblr.base(), image);
        m.cpu->reset(m.asmblr.base(), CpuMode::User);
        m.cpu->ebox().setGpr(SP, 0x20000);
        m.cpu->run(1000);
    }, "privileged");
}

} // namespace vax::test
