#include "workload/codegen.hh"

#include <cmath>

#include "arch/decimal.hh"
#include "arch/ffloat.hh"
#include "os/abi.hh"
#include "support/logging.hh"

namespace vax
{

namespace
{

/** Small prime-ish constants for divisors (never zero). */
const uint32_t divisors[] = {3, 5, 7, 11, 13, 17, 23, 37, 53, 97};

double
blockWeight(const WorkloadProfile &p, BlockKind k)
{
    return p.blockWeights[static_cast<size_t>(k)];
}

/** Combined weight of the memory operand styles.  The summation
 *  order is part of the draw contract (see Rng::pickWeighted). */
double
memoryWeight(const WorkloadProfile &p)
{
    return p.wOpDisp + p.wOpRegDef + p.wOpDispDef + p.wOpAbsolute;
}

} // anonymous namespace

CodeGenerator::CodeGenerator(const WorkloadProfile &profile,
                             uint64_t seed)
    : prof_(profile), rng_(seed), blockW_(profile.blockWeights),
      memW_{profile.wOpDisp, profile.wOpRegDef, profile.wOpDispDef,
            profile.wOpAbsolute},
      readW_{profile.wOpRegister, profile.wOpLiteral,
             profile.wOpImmediate, memoryWeight(profile)},
      readMemBiasW_{profile.wOpRegister * 0.45, profile.wOpLiteral,
                    profile.wOpImmediate, memoryWeight(profile)},
      writeW_{profile.wOpRegister * 1.6, memoryWeight(profile)},
      loopFlavorW_{blockWeight(profile, BlockKind::Float),
                   blockWeight(profile, BlockKind::ProcCall) * 0.5,
                   blockWeight(profile, BlockKind::Queue),
                   blockWeight(profile, BlockKind::Character) * 0.8,
                   blockWeight(profile, BlockKind::Move)}
{
}

Operand
CodeGenerator::dataOperand(VirtAddr addr)
{
    // Address a data object either off the hot base register or with
    // absolute mode, both range-free.
    if (rng_.chance(0.5))
        return Operand::disp(
            static_cast<int32_t>(addr - hotVa_), R8);
    return Operand::absolute(addr);
}

uint32_t
CodeGenerator::dataOffset(unsigned region_longs, unsigned size_bytes)
{
    uint32_t span = region_longs * 4 - 8 * size_bytes;
    uint32_t off = rng_.below(span);
    return off & ~(size_bytes - 1); // align to the operand size
}

Operand
CodeGenerator::memOperand(DataType t, bool write)
{
    unsigned size = dataTypeBytes(t);
    bool cold = rng_.chance(prof_.coldFraction);
    uint8_t base = cold ? R9 : R8;
    // R9 points at a window that the outer loop slides across the
    // cold region, so the cold working set is bounded per iteration.
    unsigned longs = cold ? prof_.coldWindowLongs : prof_.hotLongs;

    size_t pick = rng_.pickWeighted(memW_);

    Operand o = Operand::reg(R6);
    switch (pick) {
      case 0:
        o = Operand::disp(
            static_cast<int32_t>(dataOffset(longs, size)), base);
        break;
      case 1:
        // (R8)/(R9) point at the region base; fine for any size.
        o = Operand::regDef(base);
        break;
      case 2: {
        // Pointer table: @disp(R8) via ptrtab offsets; the table has
        // 16 longword pointers into the hot region.
        uint32_t slot = rng_.below(16);
        o = Operand::dispDef(
            static_cast<int32_t>(ptrtabOff_ + 4 * slot), R8);
        break;
      }
      case 3:
        o = Operand::absolute(hotVa_ + dataOffset(prof_.hotLongs,
                                                  size));
        break;
    }
    if (rng_.chance(prof_.pIndexed) && pick == 0 && size <= 4) {
        // Indexed: R11 is kept in [0,7]; leave room at region end.
        o = Operand::disp(
            static_cast<int32_t>(dataOffset(longs, size)), base)
            .idx(R11);
    } else if (pick == 0 && size >= 2 &&
               rng_.chance(prof_.unalignedProb)) {
        // Occasional unaligned reference (paper: 0.016/instruction).
        o = Operand::disp(
            static_cast<int32_t>(dataOffset(longs, size) + 1), base);
    }
    (void)write;
    return o;
}

Operand
CodeGenerator::readOperand(DataType t, bool mem_biased)
{
    // Source (usually first) operands come from memory more often
    // than destinations do -- the asymmetry behind the paper's
    // Table 4 position classes.
    size_t pick = rng_.pickWeighted(mem_biased ? readMemBiasW_ : readW_);
    switch (pick) {
      case 0:
        return Operand::reg(rng_.chance(0.5) ? R6 : R7);
      case 1:
        return Operand::lit(static_cast<uint8_t>(rng_.below(64)));
      case 2:
        return Operand::imm(rng_.next() & 0xFFFF);
      default:
        return memOperand(t, false);
    }
}

Operand
CodeGenerator::writeOperand(DataType t)
{
    size_t pick = rng_.pickWeighted(writeW_);
    if (pick == 0)
        return Operand::reg(rng_.chance(0.5) ? R6 : R7);
    return memOperand(t, true);
}

void
CodeGenerator::emitFiller(unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        switch (rng_.below(4)) {
          case 0:
            a_.instr(op::MOVL, {readOperand(DataType::Long),
                                writeOperand(DataType::Long)});
            break;
          case 1:
            a_.instr(op::ADDL2, {readOperand(DataType::Long),
                                 Operand::reg(R6)});
            break;
          case 2:
            a_.instr(op::INCL, {Operand::reg(R7)});
            break;
          case 3:
            a_.instr(op::BISL2, {Operand::lit(
                                     static_cast<uint8_t>(
                                         rng_.below(64))),
                                 Operand::reg(R7)});
            break;
        }
    }
}

void
CodeGenerator::emitMove(bool top_level)
{
    unsigned n = 2 + rng_.below(3);
    for (unsigned i = 0; i < n; ++i) {
        switch (rng_.below(8)) {
          case 0:
            a_.instr(op::MOVB, {readOperand(DataType::Byte),
                                writeOperand(DataType::Byte)});
            break;
          case 1:
            a_.instr(op::MOVW, {readOperand(DataType::Word),
                                writeOperand(DataType::Word)});
            break;
          case 2:
          case 3:
          case 4:
            a_.instr(op::MOVL, {readOperand(DataType::Long, true),
                                writeOperand(DataType::Long)});
            break;
          case 5:
            a_.instr(op::MOVZBL, {readOperand(DataType::Byte),
                                  writeOperand(DataType::Long)});
            break;
          case 6:
            a_.instr(op::CLRL, {writeOperand(DataType::Long)});
            break;
          case 7:
            a_.instr(op::MOVAB,
                     {memOperand(DataType::Byte, true),
                      Operand::reg(rng_.chance(0.5) ? R6 : R7)});
            break;
        }
    }
    if (top_level && rng_.chance(0.35)) {
        // Balanced stack traffic: save and restore through the stack,
        // with PUSHL for the save half some of the time.
        if (rng_.chance(0.5)) {
            a_.instr(op::PUSHL, {readOperand(DataType::Long)});
        } else {
            a_.instr(op::MOVL,
                     {Operand::reg(R6), Operand::autoDec(SP)});
        }
        emitFiller(1);
        a_.instr(op::MOVL, {Operand::autoInc(SP), Operand::reg(R7)});
    }
}

void
CodeGenerator::emitArith()
{
    unsigned n = 2 + rng_.below(3);
    for (unsigned i = 0; i < n; ++i) {
        switch (rng_.below(8)) {
          case 0:
            a_.instr(op::ADDL2, {readOperand(DataType::Long, true),
                                 rng_.chance(0.35)
                                     ? memOperand(DataType::Long, true)
                                     : Operand::reg(R6)});
            break;
          case 1:
            a_.instr(op::SUBL2, {readOperand(DataType::Long, true),
                                 rng_.chance(0.35)
                                     ? memOperand(DataType::Long, true)
                                     : Operand::reg(R6)});
            break;
          case 2:
            a_.instr(op::ADDL3, {readOperand(DataType::Long, true),
                                 Operand::reg(R7),
                                 writeOperand(DataType::Long)});
            break;
          case 3:
            a_.instr(op::INCL, {rng_.chance(0.4)
                                    ? memOperand(DataType::Long, true)
                                    : Operand::reg(R6)});
            break;
          case 4:
            a_.instr(op::DECL, {Operand::reg(R7)});
            break;
          case 5:
            a_.instr(op::CMPL, {Operand::reg(R6),
                                readOperand(DataType::Long)});
            break;
          case 6:
            a_.instr(op::TSTL, {readOperand(DataType::Long)});
            break;
          case 7:
            a_.instr(op::ASHL, {Operand::lit(rng_.below(8)),
                                Operand::reg(R7),
                                Operand::reg(R7)});
            break;
        }
    }
    if (rng_.chance(0.2)) {
        a_.instr(op::ADDW2, {readOperand(DataType::Word),
                             Operand::reg(R6)});
    }
    if (rng_.chance(0.15)) {
        a_.instr(op::CVTWL, {readOperand(DataType::Word),
                             Operand::reg(R7)});
    }
}

void
CodeGenerator::emitBoolean()
{
    unsigned n = 1 + rng_.below(3);
    for (unsigned i = 0; i < n; ++i) {
        uint8_t ops[] = {op::BISL2, op::BICL2, op::XORL2};
        a_.instr(ops[rng_.below(3)],
                 {readOperand(DataType::Long), Operand::reg(R6)});
    }
    if (rng_.chance(0.4)) {
        a_.instr(op::BITL, {Operand::lit(rng_.below(64)),
                            Operand::reg(R6)});
    }
    if (rng_.chance(0.3)) {
        a_.instr(rng_.chance(0.5) ? op::MCOML : op::MNEGL,
                 {Operand::reg(R7), Operand::reg(R7)});
    }
}

void
CodeGenerator::emitCondBranch()
{
    Label skip = a_.newLabel();
    if (rng_.chance(0.02)) {
        // Rare JMP over the fallthrough path.
        a_.instr(op::JMP, {Operand::rel(skip)});
    } else if (rng_.chance(0.35)) {
        // Branch on whatever condition codes are live, as most
        // compiled branches did (no fresh compare).
        static const uint8_t conds[] = {op::BNEQ, op::BEQL, op::BGTR,
                                        op::BLEQ, op::BGEQ, op::BLSS};
        a_.instr(conds[rng_.below(6)], {Operand::branch(skip)});
    } else if (rng_.chance(prof_.condTakenBias)) {
        // Unconditional BRB (shares the BCOND flow, as the paper
        // describes for BRB/BRW).
        a_.instr(op::BRB, {Operand::branch(skip)});
    } else if (rng_.chance(0.5)) {
        // Data-dependent low-bit test on a fresh value (~50% taken).
        a_.instr(op::MOVL, {memOperand(DataType::Long, false),
                            Operand::reg(R7)});
        a_.instr(rng_.chance(0.5) ? op::BLBS : op::BLBC,
                 {Operand::reg(R7), Operand::branch(skip)});
    } else {
        static const uint8_t conds[] = {op::BNEQ, op::BEQL, op::BGTR,
                                        op::BLEQ, op::BGEQ, op::BLSS,
                                        op::BGTRU, op::BLEQU};
        a_.instr(op::MOVL, {memOperand(DataType::Long, false),
                            Operand::reg(R7)});
        a_.instr(op::CMPL, {Operand::reg(R7),
                            readOperand(DataType::Long)});
        a_.instr(conds[rng_.below(8)], {Operand::branch(skip)});
    }
    emitFiller(1 + rng_.below(3));
    a_.bind(skip);
}

void
CodeGenerator::emitLoopBody(unsigned n)
{
    // Loop bodies carry most of the dynamic instruction stream (every
    // slot executes once per trip), so this mix dominates: data
    // movement, arithmetic, and -- as in real loop code -- plenty of
    // conditional branches, with occasional calls to leaf
    // subroutines (which never touch the loop counter).
    for (unsigned i = 0; i < n; ++i) {
        switch (rng_.below(10)) {
          case 0:
            a_.instr(op::ADDL2, {Operand::reg(R10), Operand::reg(R6)});
            break;
          case 1:
            a_.instr(op::MOVL, {memOperand(DataType::Long, false),
                                Operand::reg(R7)});
            break;
          case 2:
            a_.instr(op::ADDL2, {readOperand(DataType::Long),
                                 Operand::reg(R6)});
            break;
          case 3:
            a_.instr(op::XORL2, {Operand::reg(R10),
                                 Operand::reg(R7)});
            break;
          case 4:
            a_.instr(op::MOVL, {Operand::reg(R6),
                                memOperand(DataType::Long, true)});
            break;
          case 5:
          case 6:
          case 7:
          case 8: {
            // In-loop conditional branch over a short then-part.
            Label skip = a_.newLabel();
            if (rng_.chance(0.13)) {
                // Unconditional BRB through the shared BCOND flow.
                a_.instr(op::BRB, {Operand::branch(skip)});
            } else if (rng_.chance(0.80)) {
                static const uint8_t conds[] = {op::BNEQ, op::BEQL,
                                                op::BGTR, op::BLEQ,
                                                op::BGEQ, op::BLSS};
                if (rng_.chance(0.45)) {
                    a_.instr(op::CMPL,
                             {memOperand(DataType::Long, false),
                              Operand::reg(R7)});
                } else {
                    a_.instr(op::CMPL, {Operand::reg(R7),
                                        readOperand(DataType::Long)});
                }
                a_.instr(conds[rng_.below(6)],
                         {Operand::branch(skip)});
            } else if (rng_.chance(0.5)) {
                a_.instr(rng_.chance(0.5) ? op::BLBS : op::BLBC,
                         {Operand::reg(R7), Operand::branch(skip)});
            } else {
                a_.instr(rng_.chance(0.5) ? op::BBS : op::BBC,
                         {Operand::lit(rng_.below(28)),
                          Operand::reg(R6), Operand::branch(skip)});
            }
            a_.instr(op::INCL, {Operand::reg(R6)});
            a_.bind(skip);
            break;
          }
          case 9:
            if (rng_.chance(0.55)) {
                // Call a leaf subroutine (R10-safe).
                a_.instr(op::BSBW,
                         {Operand::branch(leaf_[rng_.below(3)])});
            } else {
                emitLoopFlavor();
            }
            break;
        }
    }
}

void
CodeGenerator::emitLoopFlavor()
{
    // Profile-flavored work inside loop bodies: scientific loops do
    // floating point, commercial loops walk queues and strings,
    // call-heavy loads save registers.
    size_t pick = rng_.pickWeighted(loopFlavorW_);
    switch (pick) {
      case 0: {
        uint32_t s = 4 * rng_.below(16);
        a_.instr(op::MOVF,
                 {Operand::disp(static_cast<int32_t>(fdatOff_ + s),
                                R8),
                  Operand::reg(R4)});
        a_.instr(rng_.chance(0.5) ? op::ADDF2 : op::MULF2,
                 {Operand::imm(doubleToF(1.0 + rng_.uniform())),
                  Operand::reg(R4)});
        break;
      }
      case 1: {
        uint32_t mask = (1u << (2 + rng_.below(4))) |
            (1u << (2 + rng_.below(4)));
        a_.instr(op::PUSHR,
                 {Operand::lit(static_cast<uint8_t>(mask))});
        a_.instr(op::POPR,
                 {Operand::lit(static_cast<uint8_t>(mask))});
        break;
      }
      case 2: {
        a_.instr(op::MOVAB,
                 {dataOperand(qentVa_[rng_.below(6)]), Operand::reg(R1)});
        int32_t qoff = static_cast<int32_t>(qhdrVa_ - hotVa_);
        a_.instr(op::INSQUE,
                 {Operand::regDef(R1), Operand::disp(qoff, R8)});
        a_.instr(op::REMQUE,
                 {Operand::dispDef(qoff, R8), Operand::reg(R2)});
        break;
      }
      case 3:
        a_.instr(op::LOCC, {Operand::lit(32), Operand::imm(24),
                            dataOperand(strVa_[0])});
        break;
      default:
        a_.instr(op::MOVL, {memOperand(DataType::Long, false),
                            Operand::reg(R7)});
        break;
    }
}

void
CodeGenerator::emitLoop()
{
    Label top = a_.newLabel();
    uint32_t trips = rng_.geometric(prof_.loopMean);
    if (trips > 200)
        trips = 200;
    // Loop limits are I-stream constants: short literals when they
    // fit (as compilers emitted them), immediates otherwise.
    auto trip_op = [&](uint32_t t) {
        return t < 64 ? Operand::lit(static_cast<uint8_t>(t))
                      : Operand::imm(t);
    };

    unsigned style = rng_.below(4);
    if (style == 0) {
        // Autoincrement scan over the hot region.
        uint32_t n = 4 + rng_.below(12);
        a_.instr(op::MOVAB, {Operand::disp(0, R8), Operand::reg(R3)});
        a_.instr(op::MOVL, {trip_op(n), Operand::reg(R10)});
        a_.bind(top);
        a_.instr(op::ADDL2, {Operand::autoInc(R3), Operand::reg(R6)});
        emitLoopBody(1 + rng_.below(3));
        a_.instr(op::SOBGTR, {Operand::reg(R10), Operand::branch(top)});
    } else if (style == 1) {
        a_.instr(op::MOVL, {trip_op(trips), Operand::reg(R10)});
        a_.bind(top);
        emitLoopBody(3 + rng_.below(6));
        a_.instr(op::SOBGTR, {Operand::reg(R10), Operand::branch(top)});
    } else if (style == 2) {
        a_.instr(op::CLRL, {Operand::reg(R10)});
        a_.bind(top);
        emitLoopBody(3 + rng_.below(5));
        a_.instr(op::AOBLSS, {trip_op(trips), Operand::reg(R10),
                              Operand::branch(top)});
    } else {
        a_.instr(op::CLRL, {Operand::reg(R10)});
        a_.bind(top);
        emitLoopBody(2 + rng_.below(5));
        a_.instr(op::ACBL, {trip_op(trips), Operand::lit(2),
                            Operand::reg(R10), Operand::branch(top)});
    }
}

void
CodeGenerator::emitSubroutineCall()
{
    unsigned target = inSub_
        ? curSub_ + 1 + rng_.below(
              prof_.numSubroutines - curSub_ > 1
                  ? prof_.numSubroutines - curSub_ - 1 : 1)
        : rng_.below(prof_.numSubroutines);
    if (target >= prof_.numSubroutines)
        return;
    if (rng_.chance(0.25)) {
        a_.instr(op::JSB, {Operand::rel(sub_[target])});
    } else {
        a_.instr(op::BSBW, {Operand::branch(sub_[target])});
    }
}

void
CodeGenerator::emitProcCall()
{
    if (rng_.chance(0.4)) {
        // PUSHR/POPR pair: multi-register save/restore traffic.
        // Small masks (R2-R5) fit in short literals, as compiled
        // code emitted them; larger sets need immediates.
        uint32_t mask = 0;
        unsigned bits = 2 + rng_.below(4);
        bool wide = rng_.chance(0.3);
        for (unsigned i = 0; i < bits; ++i)
            mask |= 1u << (2 + rng_.below(wide ? 8 : 4));
        Operand mop = mask < 64
            ? Operand::lit(static_cast<uint8_t>(mask))
            : Operand::imm(mask & 0xFFFF);
        a_.instr(op::PUSHR, {mop});
        emitFiller(1 + rng_.below(2));
        a_.instr(op::POPR, {mop});
        return;
    }
    unsigned target = rng_.below(prof_.numProcedures);
    unsigned nargs = rng_.below(3);
    for (unsigned i = 0; i < nargs; ++i)
        a_.instr(op::PUSHL, {readOperand(DataType::Long)});
    a_.instr(op::CALLS, {Operand::lit(static_cast<uint8_t>(nargs)),
                         Operand::rel(proc_[target])});
}

void
CodeGenerator::emitField()
{
    unsigned n = 1 + rng_.below(2);
    for (unsigned i = 0; i < n; ++i) {
        uint8_t pos = static_cast<uint8_t>(rng_.below(24));
        uint8_t size = static_cast<uint8_t>(1 + rng_.below(8));
        bool reg_base = rng_.chance(0.4);
        Operand base = reg_base
            ? Operand::reg(R7)
            : memOperand(DataType::Byte, false);
        switch (rng_.below(4)) {
          case 0:
            a_.instr(rng_.chance(0.5) ? op::EXTV : op::EXTZV,
                     {Operand::lit(pos), Operand::lit(size), base,
                      Operand::reg(R6)});
            break;
          case 1:
            a_.instr(op::INSV, {Operand::reg(R6), Operand::lit(pos),
                                Operand::lit(size), base});
            break;
          case 2:
            a_.instr(op::FFS, {Operand::lit(0), Operand::lit(24),
                               base, Operand::reg(R7)});
            break;
          case 3:
            a_.instr(op::CMPV, {Operand::lit(pos), Operand::lit(size),
                                base, Operand::reg(R6)});
            break;
        }
    }
    // Bit branches.
    if (rng_.chance(0.85)) {
        Label skip = a_.newLabel();
        uint8_t bit = static_cast<uint8_t>(rng_.below(28));
        static const uint8_t bbs[] = {op::BBS, op::BBC, op::BBSS,
                                      op::BBCC, op::BBCS, op::BBSC};
        uint8_t o = bbs[rng_.below(6)];
        bool reg_base = rng_.chance(0.5);
        Operand base = reg_base ? Operand::reg(R6)
                                : memOperand(DataType::Byte, false);
        // Modify forms need a writable base.
        if ((o == op::BBSS || o == op::BBCC || o == op::BBCS ||
             o == op::BBSC) && !reg_base) {
            base = memOperand(DataType::Byte, true);
        }
        a_.instr(o, {Operand::lit(bit), base, Operand::branch(skip)});
        emitFiller(1 + rng_.below(2));
        a_.bind(skip);
    }
}

void
CodeGenerator::emitFloat()
{
    // Load, operate, store against the F_floating data pool.
    uint32_t slot = 4 * rng_.below(16);
    a_.instr(op::MOVF,
             {Operand::disp(static_cast<int32_t>(fdatOff_ + slot), R8),
              Operand::reg(R4)});
    unsigned n = 1 + rng_.below(3);
    for (unsigned i = 0; i < n; ++i) {
        uint32_t s2 = 4 * rng_.below(16);
        Operand src = Operand::disp(
            static_cast<int32_t>(fdatOff_ + s2), R8);
        switch (rng_.below(5)) {
          case 0:
            a_.instr(op::ADDF2, {src, Operand::reg(R4)});
            break;
          case 1:
            a_.instr(op::SUBF2, {src, Operand::reg(R4)});
            break;
          case 2:
            a_.instr(op::MULF2,
                     {Operand::imm(doubleToF(1.0 + rng_.uniform())),
                      Operand::reg(R4)});
            break;
          case 3:
            a_.instr(op::DIVF2,
                     {Operand::imm(doubleToF(1.0 + rng_.uniform())),
                      Operand::reg(R4)});
            break;
          case 4:
            a_.instr(op::CMPF, {Operand::reg(R4), src});
            break;
        }
    }
    a_.instr(op::MOVF,
             {Operand::reg(R4),
              Operand::disp(static_cast<int32_t>(
                                fdatOff_ + 4 * rng_.below(16)), R8)});

    // Integer multiply/divide (FLOAT group per Table 1).
    if (rng_.chance(0.6)) {
        a_.instr(op::MULL2, {Operand::imm(divisors[rng_.below(10)]),
                             Operand::reg(R6)});
    }
    if (rng_.chance(0.4)) {
        a_.instr(op::DIVL2, {Operand::imm(divisors[rng_.below(10)]),
                             Operand::reg(R6)});
    }
    if (rng_.chance(0.15)) {
        a_.instr(op::EMUL, {Operand::reg(R6), Operand::reg(R7),
                            Operand::lit(3), Operand::reg(R2)});
    }
    if (rng_.chance(0.1)) {
        a_.instr(op::CVTLF, {Operand::reg(R6), Operand::reg(R4)});
        a_.instr(op::CVTFL, {Operand::reg(R4), Operand::reg(R7)});
    }
}

void
CodeGenerator::emitCharacter()
{
    unsigned len = rng_.geometric(prof_.strLenMean);
    if (len < 8)
        len = 8;
    if (len > 64)
        len = 64;
    uint32_t src = strVa_[rng_.below(3)];
    uint32_t dst = strVa_[rng_.below(3)];
    // Some strings are unaligned (substrings), forcing the byte loop.
    uint32_t skew = rng_.chance(0.45) ? 1 + rng_.below(3) : 0;
    switch (rng_.below(4)) {
      case 0:
        a_.instr(op::MOVC3,
                 {Operand::imm(len),
                  Operand::disp(static_cast<int32_t>(
                                    src - hotVa_ + skew),
                                R8),
                  dataOperand(dst)});
        break;
      case 1:
        a_.instr(op::CMPC3, {Operand::imm(len), dataOperand(src),
                             dataOperand(dst)});
        break;
      case 2:
        a_.instr(rng_.chance(0.7) ? op::LOCC : op::SKPC,
                 {Operand::lit(32), Operand::imm(len),
                  dataOperand(src)});
        break;
      case 3:
        a_.instr(op::SCANC, {Operand::imm(len), dataOperand(src),
                             dataOperand(charTabVa_),
                             Operand::lit(1)});
        break;
    }
}

void
CodeGenerator::emitDecimal()
{
    unsigned digits = prof_.decDigitsMean;
    uint32_t s0 = pkVa_[rng_.below(6)];
    uint32_t s1 = pkVa_[rng_.below(6)];
    switch (rng_.below(4)) {
      case 0:
        a_.instr(rng_.chance(0.6) ? op::ADDP4 : op::SUBP4,
                 {Operand::imm(digits), dataOperand(s0),
                  Operand::imm(digits), dataOperand(s1)});
        break;
      case 1:
        a_.instr(op::CMPP3, {Operand::imm(digits), dataOperand(s0),
                             dataOperand(s1)});
        break;
      case 2:
        a_.instr(op::MOVP, {Operand::imm(digits), dataOperand(s0),
                            dataOperand(s1)});
        break;
      case 3:
        a_.instr(op::CVTLP, {Operand::reg(R6), Operand::imm(digits),
                             dataOperand(s0)});
        break;
    }
}

void
CodeGenerator::emitCase()
{
    Label c0 = a_.newLabel(), c1 = a_.newLabel(), c2 = a_.newLabel();
    Label c3 = a_.newLabel(), end = a_.newLabel();
    a_.instr(op::MOVL, {memOperand(DataType::Long, false),
                        Operand::reg(R7)});
    a_.instr(op::BICL3, {Operand::imm(~3u), Operand::reg(R7),
                         Operand::reg(R7)});
    a_.instr(op::CASEL, {Operand::reg(R7), Operand::lit(0),
                         Operand::lit(3)});
    a_.caseTable({c0, c1, c2, c3});
    a_.bind(c0);
    emitFiller(1);
    a_.instr(op::BRB, {Operand::branch(end)});
    a_.bind(c1);
    emitFiller(1);
    a_.instr(op::BRB, {Operand::branch(end)});
    a_.bind(c2);
    emitFiller(1);
    a_.instr(op::BRB, {Operand::branch(end)});
    a_.bind(c3);
    emitFiller(1);
    a_.bind(end);
}

void
CodeGenerator::emitQueue()
{
    uint32_t ent = rng_.below(6);
    a_.instr(op::MOVAB, {dataOperand(qentVa_[ent]), Operand::reg(R1)});
    int32_t qoff = static_cast<int32_t>(qhdrVa_ - hotVa_);
    a_.instr(op::INSQUE,
             {Operand::regDef(R1), Operand::disp(qoff, R8)});
    a_.instr(op::REMQUE,
             {Operand::dispDef(qoff, R8), Operand::reg(R2)});
}

void
CodeGenerator::emitSyscall()
{
    if (rng_.chance(0.02)) {
        // Synchronous disk read: the process blocks until the
        // controller completes the transfer.  Rare: real loads did a
        // disk transfer every tens of thousands of instructions.
        a_.instr(op::CHMK, {Operand::lit(abi::sysDiskRead)});
        return;
    }
    switch (rng_.below(3)) {
      case 0:
        a_.instr(op::CHMK, {Operand::lit(abi::sysGetTime)});
        break;
      case 1:
        a_.instr(op::MOVAB, {dataOperand(ioBufVa_), Operand::reg(R1)});
        a_.instr(op::MOVL, {Operand::lit(32), Operand::reg(R2)});
        a_.instr(op::CHMK, {Operand::lit(abi::sysPuts)});
        break;
      case 2:
        a_.instr(op::MOVAB, {dataOperand(ioBufVa_), Operand::reg(R1)});
        a_.instr(op::CHMK, {Operand::lit(abi::sysGets)});
        break;
    }
}

void
CodeGenerator::emitBlock(BlockKind k, bool top_level)
{
    switch (k) {
      case BlockKind::Move:       emitMove(top_level); break;
      case BlockKind::Arith:      emitArith(); break;
      case BlockKind::Boolean:    emitBoolean(); break;
      case BlockKind::CondBranch: emitCondBranch(); break;
      case BlockKind::Loop:       emitLoop(); break;
      case BlockKind::Subroutine:
        if (top_level || inSub_)
            emitSubroutineCall();
        else
            emitArith();
        break;
      case BlockKind::ProcCall:
        if (top_level)
            emitProcCall();
        else
            emitMove(false);
        break;
      case BlockKind::Field:      emitField(); break;
      case BlockKind::Float:      emitFloat(); break;
      case BlockKind::Character:  emitCharacter(); break;
      case BlockKind::Decimal:    emitDecimal(); break;
      case BlockKind::Case:       emitCase(); break;
      case BlockKind::Queue:      emitQueue(); break;
      case BlockKind::Syscall:
        if (top_level)
            emitSyscall();
        else
            emitArith();
        break;
      default:
        panic("bad block kind");
    }
}

void
CodeGenerator::emitSubroutines()
{
    // Leaf subroutines callable from loop bodies: straight-line code,
    // no loops, no calls, and no use of the loop counter.
    for (unsigned i = 0; i < 3; ++i) {
        a_.bind(leaf_[i]);
        unsigned n = 2 + rng_.below(4);
        for (unsigned k = 0; k < n; ++k) {
            switch (rng_.below(3)) {
              case 0:
                a_.instr(op::ADDL2, {readOperand(DataType::Long),
                                     Operand::reg(R6)});
                break;
              case 1:
                a_.instr(op::MOVL, {memOperand(DataType::Long, false),
                                    Operand::reg(R7)});
                break;
              case 2:
                a_.instr(op::BICL2, {Operand::lit(rng_.below(64)),
                                     Operand::reg(R7)});
                break;
            }
        }
        a_.instr(op::RSB);
    }

    for (unsigned i = 0; i < prof_.numSubroutines; ++i) {
        a_.bind(sub_[i]);
        inSub_ = true;
        curSub_ = i;
        unsigned blocks = 2 + rng_.below(3);
        for (unsigned b = 0; b < blocks; ++b) {
            BlockKind k =
                static_cast<BlockKind>(rng_.pickWeighted(blockW_));
            // Subroutines avoid services and procedure calls.
            if (k == BlockKind::Syscall || k == BlockKind::ProcCall)
                k = BlockKind::Arith;
            emitBlock(k, false);
        }
        inSub_ = false;
        a_.instr(op::RSB);
    }
}

void
CodeGenerator::emitProcedures()
{
    for (unsigned i = 0; i < prof_.numProcedures; ++i) {
        a_.align(2);
        a_.bind(proc_[i]);
        // Entry mask: R6, R7, R10, R11 plus a couple of extras.
        uint16_t mask = (1u << 6) | (1u << 7) | (1u << 10) | (1u << 11);
        unsigned extras = rng_.below(3);
        for (unsigned b = 0; b < extras; ++b)
            mask |= 1u << (2 + rng_.below(4)); // R2-R5
        a_.entryMask(mask);
        // Touch the arguments.
        a_.instr(op::MOVL, {Operand::disp(0, AP), Operand::reg(R7)});
        unsigned blocks = 1 + rng_.below(3);
        for (unsigned b = 0; b < blocks; ++b) {
            BlockKind k =
                static_cast<BlockKind>(rng_.pickWeighted(blockW_));
            if (k == BlockKind::Syscall || k == BlockKind::ProcCall ||
                k == BlockKind::Subroutine)
                k = BlockKind::Move;
            emitBlock(k, false);
        }
        a_.instr(op::RET);
    }
}

void
CodeGenerator::emitDataRegions()
{
    auto randomLong = [this] { return static_cast<uint32_t>(rng_.next()); };

    a_.lword(0); // keep P0 address 0 unused
    a_.align(4);
    hotVa_ = a_.here();
    a_.lwords(prof_.hotLongs, randomLong);

    // The F_floating pool sits inside the hot region's addressing
    // reach via R8 displacements.
    fdatOff_ = a_.here() - hotVa_;
    a_.lwords(16, [this] {
        return doubleToF((rng_.uniform() - 0.5) * 1000.0);
    });

    // Pointer table for deferred modes (points into the hot region).
    ptrtabOff_ = a_.here() - hotVa_;
    a_.lwords(16, [this] {
        return hotVa_ + 4 * rng_.below(prof_.hotLongs);
    });

    // Queue header and entries.
    qhdrVa_ = a_.here();
    a_.lword(qhdrVa_);
    a_.lword(qhdrVa_);
    for (uint32_t &ent : qentVa_) {
        ent = a_.here();
        a_.lword(0);
        a_.lword(0);
    }

    // Strings and scan table.
    for (uint32_t &str : strVa_) {
        a_.align(4);
        str = a_.here();
        for (unsigned i = 0; i < 64; ++i)
            a_.byte(static_cast<uint8_t>(0x20 + rng_.below(0x5F)));
    }
    a_.align(4);
    charTabVa_ = a_.here();
    for (unsigned i = 0; i < 256; ++i)
        a_.byte(rng_.chance(0.05) ? 1 : 0);

    // Packed-decimal slots.
    a_.align(4);
    for (uint32_t &pk : pkVa_) {
        pk = a_.here();
        auto bytes = intToPacked(
            static_cast<int64_t>(rng_.next() % 1000000000ULL),
            prof_.decDigitsMean);
        for (uint8_t b : bytes)
            a_.byte(b);
        a_.space(16 - bytes.size());
    }

    a_.align(4);
    ioBufVa_ = a_.here();
    a_.space(64, ' ');

    // The cold region comes last (it is big).
    a_.align(4);
    coldVa_ = a_.here();
    a_.lwords(prof_.coldLongs, randomLong);
}

UserProgram
CodeGenerator::generate(unsigned terminal_id)
{
    // Layout: all data first (so every address is known while code is
    // emitted), then the main loop, subroutines and procedures.  The
    // OS starts the process at `entry` directly.
    // The image is the two random data regions plus about 20 bytes
    // of code per block (the small data pools fit the slack), so one
    // allocation holds it.
    a_.reserve(4 * (prof_.hotLongs + prof_.coldLongs) +
               32 * prof_.blocksPerIteration + 2048);
    for (Label &l : leaf_)
        l = a_.newLabel();
    for (unsigned i = 0; i < prof_.numSubroutines; ++i)
        sub_.push_back(a_.newLabel());
    for (unsigned i = 0; i < prof_.numProcedures; ++i)
        proc_.push_back(a_.newLabel());

    emitDataRegions();

    UserProgram prog;
    prog.entry = a_.here();
    prog.terminalId = terminal_id;
    a_.instr(op::MOVL, {Operand::imm(hotVa_), Operand::reg(R8)});
    a_.instr(op::MOVL, {Operand::imm(coldVa_), Operand::reg(R9)});
    a_.instr(op::CLRL, {Operand::reg(R6)});
    a_.instr(op::MOVL,
             {Operand::imm(static_cast<uint32_t>(rng_.next())),
              Operand::reg(R7)});
    Label outer = a_.newLabel(), outer_w = a_.newLabel();
    a_.bind(outer);
    // Slide the cold window; wrap at the end of the region.
    a_.instr(op::ADDL2,
             {Operand::imm(prof_.coldWindowLongs * 4),
              Operand::reg(R9)});
    a_.instr(op::CMPL,
             {Operand::reg(R9),
              Operand::imm(coldVa_ +
                           (prof_.coldLongs - prof_.coldWindowLongs) *
                               4)});
    a_.instr(op::BCS, {Operand::branch(outer_w)});
    a_.instr(op::MOVL, {Operand::imm(coldVa_), Operand::reg(R9)});
    a_.bind(outer_w);
    a_.instr(op::BICL3, {Operand::imm(~7u), Operand::reg(R7),
                         Operand::reg(R11)});
    for (unsigned b = 0; b < prof_.blocksPerIteration; ++b) {
        BlockKind k =
            static_cast<BlockKind>(rng_.pickWeighted(blockW_));
        emitBlock(k, true);
        if (rng_.chance(0.1)) {
            // Refresh the index register invariant.
            a_.instr(op::BICL3, {Operand::imm(~7u), Operand::reg(R7),
                                 Operand::reg(R11)});
        }
    }
    if (rng_.chance(prof_.getsProb)) {
        a_.instr(op::MOVAB, {dataOperand(ioBufVa_), Operand::reg(R1)});
        a_.instr(op::CHMK, {Operand::lit(abi::sysGets)});
    }
    if (rng_.chance(prof_.putsProb)) {
        a_.instr(op::MOVAB, {dataOperand(ioBufVa_), Operand::reg(R1)});
        a_.instr(op::MOVL, {Operand::lit(32), Operand::reg(R2)});
        a_.instr(op::CHMK, {Operand::lit(abi::sysPuts)});
    }
    if (rng_.chance(prof_.waitProb))
        a_.instr(op::CHMK, {Operand::lit(abi::sysWaitTerm)});
    a_.instr(op::BRW, {Operand::branch(outer)});

    emitSubroutines();
    emitProcedures();

    prog.image = a_.finish();
    return prog;
}

} // namespace vax
