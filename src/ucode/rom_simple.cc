/**
 * @file
 * Execute flows of the SIMPLE group: moves, simple arithmetic and
 * boolean operations, branches, and subroutine linkage.
 *
 * Microcode sharing follows the real machine: ADD/SUB (and the other
 * ALU pairs) share one flow with the ALU function derived from the
 * opcode, and BRB/BRW share the simple-conditional-branch flow -- the
 * sharing that limits what the UPC histogram can distinguish.
 */

#include <string>

#include "ucode/rom_ctx.hh"

namespace vax
{

namespace
{

constexpr Group G = Group::Simple;
constexpr Row R = Row::ExecSimple;

void
buildMoves(RomCtx &c)
{
    // MOV / MOVA: one compute cycle plus the store cycle.
    StoreTail mov_st = makeStoreTail(c, R, "MOV");
    execEntry(c, ExecFlow::Mov, G, "MOV", flowStore(mov_st),
              [mov_st](Ebox &e) {
        e.lat.t[0] = e.lat.op[0];
        e.setCcNz(e.lat.t[0], e.lat.dst[0].type);
        jumpStore(e, mov_st);
    });
    execEntry(c, ExecFlow::MovAddr, G, "MOVA", flowStore(mov_st),
              [mov_st](Ebox &e) {
        e.lat.t[0] = e.lat.op[0];
        e.setCcNz(e.lat.t[0], DataType::Long);
        jumpStore(e, mov_st);
    });

    // MOVQ: quad store tails of its own.
    ULabel qreg = c.lbl(), qmem = c.lbl();
    execEntry(c, ExecFlow::MovQ, G, "MOVQ", flowTo({qreg, qmem}),
              [qreg, qmem](Ebox &e) {
        e.lat.t[0] = e.lat.op[0];
        e.lat.t[1] = e.lat.opHi[0];
        e.psl().cc.z = e.lat.t[0] == 0 && e.lat.t[1] == 0;
        e.psl().cc.n = (e.lat.t[1] >> 31) & 1;
        e.psl().cc.v = false;
        e.uJump(e.lat.dst[0].kind == DstLatch::Kind::Reg ? qreg : qmem);
    });
    c.bind(qreg);
    c.emit(R, "MOVQ.streg", flowEnd(), [](Ebox &e) {
        e.r(e.lat.dst[0].reg) = e.lat.t[0];
        e.r((e.lat.dst[0].reg + 1) & 0xF) = e.lat.t[1];
        e.endInstruction();
    });
    c.bind(qmem);
    c.emitWrite(R, "MOVQ.stmem1", flowFall(), [](Ebox &e) {
        e.memWrite(e.lat.dst[0].addr, e.lat.t[0], 4);
    });
    c.emitWrite(R, "MOVQ.stmem2", flowEnd(), [](Ebox &e) {
        e.memWrite(e.lat.dst[0].addr + 4, e.lat.t[1], 4);
        e.endInstruction();
    });

    // PUSHL / PUSHAB / PUSHAL: one cycle, one write.
    execEntry(c, ExecFlow::Push, G, "PUSH", flowEnd(), [](Ebox &e) {
        e.setCcNz(e.lat.op[0], DataType::Long);
        e.r(SP) -= 4;
        e.memWrite(e.r(SP), e.lat.op[0], 4);
        e.endInstruction();
    }, UMemKind::Write);

    // CLR: shares the MOV store shape.
    StoreTail clr_st = makeStoreTail(c, R, "CLR");
    ULabel clrq_reg = c.lbl(), clrq_mem = c.lbl();
    execEntry(c, ExecFlow::Clr, G, "CLR",
              flowStore(clr_st).orTo(clrq_reg).orTo(clrq_mem),
              [clr_st, clrq_reg, clrq_mem](Ebox &e) {
                  e.lat.t[0] = 0;
                  e.lat.t[1] = 0;
                  e.psl().cc.z = true;
                  e.psl().cc.n = false;
                  e.psl().cc.v = false;
                  if (e.lat.dst[0].type == DataType::Quad) {
                      e.uJump(e.lat.dst[0].kind == DstLatch::Kind::Reg
                              ? clrq_reg : clrq_mem);
                  } else {
                      jumpStore(e, clr_st);
                  }
              });
    c.bind(clrq_reg);
    c.emit(R, "CLRQ.streg", flowEnd(), [](Ebox &e) {
        e.r(e.lat.dst[0].reg) = 0;
        e.r((e.lat.dst[0].reg + 1) & 0xF) = 0;
        e.endInstruction();
    });
    c.bind(clrq_mem);
    c.emitWrite(R, "CLRQ.stmem1", flowFall(), [](Ebox &e) {
        e.memWrite(e.lat.dst[0].addr, 0, 4);
    });
    c.emitWrite(R, "CLRQ.stmem2", flowEnd(), [](Ebox &e) {
        e.memWrite(e.lat.dst[0].addr + 4, 0, 4);
        e.endInstruction();
    });
}

void
buildAlu(RomCtx &c)
{
    execEntry(c, ExecFlow::Tst, G, "TST", flowEnd(), [](Ebox &e) {
        e.setCcNz(e.lat.op[0], e.lat.info->sizeLatch());
        e.psl().cc.c = false;
        e.endInstruction();
    });

    execEntry(c, ExecFlow::Cmp, G, "CMP", flowEnd(), [](Ebox &e) {
        cmpCc(e.lat.op[0], e.lat.op[1], e.lat.info->sizeLatch(),
              &e.psl());
        e.endInstruction();
    });

    execEntry(c, ExecFlow::Bit, G, "BIT", flowEnd(), [](Ebox &e) {
        e.setCcNz(e.lat.op[0] & e.lat.op[1], e.lat.info->sizeLatch());
        e.endInstruction();
    });

    StoreTail mcom_st = makeStoreTail(c, R, "MCOM");
    execEntry(c, ExecFlow::MCom, G, "MCOM", flowStore(mcom_st),
              [mcom_st](Ebox &e) {
        e.lat.t[0] = ~e.lat.op[0];
        e.setCcNz(e.lat.t[0], e.lat.dst[0].type);
        jumpStore(e, mcom_st);
    });

    StoreTail mneg_st = makeStoreTail(c, R, "MNEG");
    execEntry(c, ExecFlow::MNeg, G, "MNEG", flowStore(mneg_st),
              [mneg_st](Ebox &e) {
        e.lat.t[0] = addCc(e.lat.op[0], 0, true,
                           e.lat.info->sizeLatch(), &e.psl());
        jumpStore(e, mneg_st);
    });

    StoreTail incdec_st = makeStoreTail(c, R, "INCDEC");
    execEntry(c, ExecFlow::IncDec, G, "INCDEC",
              flowStore(incdec_st), [incdec_st](Ebox &e) {
        bool dec = e.lat.opcode == op::DECB ||
            e.lat.opcode == op::DECW || e.lat.opcode == op::DECL;
        e.lat.t[0] = addCc(1, e.lat.op[0], dec,
                           e.lat.info->sizeLatch(), &e.psl());
        jumpStore(e, incdec_st);
    });

    // The shared 2- and 3-operand ALU flows.  The hardware derives the
    // ALU function from the opcode; the flow is one compute cycle plus
    // the store.
    StoreTail alu_st = makeStoreTail(c, R, "ALU");
    execEntry(c, ExecFlow::Alu2, G, "ALU2", flowStore(alu_st),
              [alu_st](Ebox &e) {
        e.lat.t[0] = aluCompute(e.lat.opcode, e.lat.op[0], e.lat.op[1],
                                e.lat.info->sizeLatch(), &e.psl());
        jumpStore(e, alu_st);
    });
    execEntry(c, ExecFlow::Alu3, G, "ALU3", flowStore(alu_st),
              [alu_st](Ebox &e) {
        e.lat.t[0] = aluCompute(e.lat.opcode, e.lat.op[0], e.lat.op[1],
                                e.lat.info->sizeLatch(), &e.psl());
        jumpStore(e, alu_st);
    });

    StoreTail ash_st = makeStoreTail(c, R, "ASH");
    execEntry(c, ExecFlow::Ash, G, "ASH", flowStore(ash_st),
              [ash_st](Ebox &e) {
        e.lat.t[0] = shiftCompute(e.lat.opcode,
                                  static_cast<int8_t>(e.lat.op[0]),
                                  e.lat.op[1], &e.psl());
        jumpStore(e, ash_st);
    });

    StoreTail cvt_st = makeStoreTail(c, R, "CVT");
    execEntry(c, ExecFlow::Cvt, G, "CVT", flowStore(cvt_st),
              [cvt_st](Ebox &e) {
        e.lat.t[0] = cvtCompute(e.lat.opcode, e.lat.op[0], &e.psl());
        jumpStore(e, cvt_st);
    });
}

void
buildBranches(RomCtx &c)
{
    // Simple conditional branches + BRB/BRW (one shared flow).
    ULabel bc_taken = makeTakenTail(c, R, PcChangeKind::SimpleCond,
                                    "BCOND");
    execEntry(c, ExecFlow::BCond, G, "BCOND",
              flowTo(bc_taken).orEnd(), [bc_taken](Ebox &e) {
        if (branchCond(e.lat.opcode, e.psl()))
            e.uJump(bc_taken);
        else
            branchNotTaken(e);
    });

    // Loop branches: SOB (decrement), AOB (increment), ACB (add).
    auto build_loop = [&c](ExecFlow flow, const char *name,
                           auto compute, auto cond) {
        ULabel taken =
            makeTakenTail(c, R, PcChangeKind::LoopBranch, name);
        ULabel wr_reg = c.lbl(), wr_mem = c.lbl();
        execEntry(c, flow, G, name, flowTo({wr_reg, wr_mem}),
                  [compute, wr_reg, wr_mem](Ebox &e) {
                      e.lat.t[0] = compute(e);
                      e.uJump(e.lat.dst[0].kind == DstLatch::Kind::Reg
                              ? wr_reg : wr_mem);
                  });
        std::string n(name);
        c.bind(wr_reg);
        c.emit(R, c.name(n + ".wreg"),
               flowTo(taken).orEnd(), [cond, taken](Ebox &e) {
                   writeRegSized(&e.r(e.lat.dst[0].reg), e.lat.t[0],
                                 DataType::Long);
                   if (cond(e))
                       e.uJump(taken);
                   else
                       branchNotTaken(e);
               });
        c.bind(wr_mem);
        c.emitWrite(R, c.name(n + ".wmem"),
                    flowTo(taken).orEnd(), [cond, taken](Ebox &e) {
                        if (cond(e))
                            e.uJump(taken);
                        else
                            branchNotTaken(e);
                        e.memWrite(e.lat.dst[0].addr, e.lat.t[0], 4);
                    });
    };

    build_loop(ExecFlow::Sob, "SOB",
               [](Ebox &e) {
                   return addCc(1, e.lat.op[0], true, DataType::Long,
                                &e.psl());
               },
               [](Ebox &e) {
                   int32_t v = static_cast<int32_t>(e.lat.t[0]);
                   return e.lat.opcode == op::SOBGEQ ? v >= 0 : v > 0;
               });
    build_loop(ExecFlow::Aob, "AOB",
               [](Ebox &e) {
                   return addCc(1, e.lat.op[1], false, DataType::Long,
                                &e.psl());
               },
               [](Ebox &e) {
                   int32_t v = static_cast<int32_t>(e.lat.t[0]);
                   int32_t limit = static_cast<int32_t>(e.lat.op[0]);
                   return e.lat.opcode == op::AOBLSS ? v < limit
                                                     : v <= limit;
               });
    build_loop(ExecFlow::Acb, "ACB",
               [](Ebox &e) {
                   return addCc(e.lat.op[1], e.lat.op[2], false,
                                DataType::Long, &e.psl());
               },
               [](Ebox &e) {
                   int32_t v = static_cast<int32_t>(e.lat.t[0]);
                   int32_t limit = static_cast<int32_t>(e.lat.op[0]);
                   return static_cast<int32_t>(e.lat.op[1]) >= 0
                       ? v <= limit : v >= limit;
               });

    // Low-bit tests.
    ULabel blb_taken =
        makeTakenTail(c, R, PcChangeKind::LowBitTest, "BLB");
    execEntry(c, ExecFlow::Blb, G, "BLB", flowTo(blb_taken).orEnd(),
              [blb_taken](Ebox &e) {
        bool set = e.lat.op[0] & 1;
        bool want = e.lat.opcode == op::BLBS;
        if (set == want)
            e.uJump(blb_taken);
        else
            branchNotTaken(e);
    });

    // BSB: push the return PC, then fall into its B-DISP/taken tail.
    execEntry(c, ExecFlow::Bsb, G, "BSB", flowFall(), [](Ebox &e) {
        e.lat.t[0] = e.decodePc() + e.lat.info->bdispBytes;
        e.r(SP) -= 4;
        e.memWrite(e.r(SP), e.lat.t[0], 4);
    }, UMemKind::Write);
    makeTakenTail(c, R, PcChangeKind::SubrCallRet, "BSB");

    execEntry(c, ExecFlow::Jsb, G, "JSB", flowFall(), [](Ebox &e) {
        e.r(SP) -= 4;
        e.memWrite(e.r(SP), e.decodePc(), 4);
    }, UMemKind::Write);
    c.emit(R, "JSB.go", flowEnd(), [](Ebox &e) {
        e.redirect(e.lat.op[0]);
        e.endInstruction();
    });

    execEntry(c, ExecFlow::Rsb, G, "RSB", flowFall(), [](Ebox &e) {
        e.memRead(e.r(SP), 4);
        e.r(SP) += 4;
    }, UMemKind::Read);
    c.emit(R, "RSB.go", flowEnd(), [](Ebox &e) {
        e.redirect(e.md());
        e.endInstruction();
    });

    execEntry(c, ExecFlow::Jmp, G, "JMP", flowEnd(), [](Ebox &e) {
        e.redirect(e.lat.op[0]);
        e.endInstruction();
    });

    // CASE: selector arithmetic, a D-stream read of the in-line
    // displacement table, and a redirect (always PC-changing).
    ULabel case_fall = c.lbl();
    execEntry(c, ExecFlow::Case, G, "CASE",
              flowTo(case_fall).orFall(), [case_fall](Ebox &e) {
        e.lat.t[0] = e.lat.op[0] - e.lat.op[1]; // selector - base
        e.lat.t[1] = e.decodePc();              // table address
        cmpCc(e.lat.t[0], e.lat.op[2], DataType::Long, &e.psl());
        if (e.lat.t[0] > e.lat.op[2]) // unsigned compare
            e.uJump(case_fall);
    });
    c.emitRead(R, "CASE.read", flowFall(), [](Ebox &e) {
        e.memRead(e.lat.t[1] + 2 * e.lat.t[0], 2);
    });
    {
        UAnnotation a = c.ann(R, "CASE.go");
        a.mark = UMark::BranchTaken;
        a.pck = PcChangeKind::CaseBranch;
        c.emitFull(a, flowEnd(), [](Ebox &e) {
            e.redirect(e.lat.t[1] +
                       static_cast<uint32_t>(sextTo(e.md(),
                                                    DataType::Word)));
            e.endInstruction();
        });
    }
    c.bind(case_fall);
    {
        UAnnotation a = c.ann(R, "CASE.fall");
        a.mark = UMark::BranchTaken;
        a.pck = PcChangeKind::CaseBranch;
        c.emitFull(a, flowEnd(), [](Ebox &e) {
            e.redirect(e.lat.t[1] + 2 * (e.lat.op[2] + 1));
            e.endInstruction();
        });
    }
}

} // anonymous namespace

void
buildSimpleFlows(RomCtx &c)
{
    buildMoves(c);
    buildAlu(c);
    buildBranches(c);
}

} // namespace vax
