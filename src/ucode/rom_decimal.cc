/**
 * @file
 * Execute flows of the DECIMAL group: packed-decimal arithmetic.
 *
 * Operands are read byte-by-byte into the string datapath buffer,
 * processed one digit per cycle (the digit loop), and written back
 * byte-by-byte -- giving the order-of-100-cycle costs Table 9 reports
 * for this group.
 */

#include <string>
#include <vector>

#include "arch/decimal.hh"
#include "ucode/rom_ctx.hh"

namespace vax
{

namespace
{

constexpr Group G = Group::Decimal;
constexpr Row R = Row::ExecDecimal;

/**
 * Read helpers shared by the decimal flows.
 *
 * Layout of the latches while a decimal flow runs:
 *   t[0] = current string address, t[1] = bytes remaining,
 *   t[2] = buffer index, sc = digit-loop counter,
 *   wide[0] / wide[1] = decoded operand values.
 */

/** Emit a byte-read loop: reads t[1] bytes from t[0] into strBuf at
 *  t[2].  Two cycles per byte.  Returns the loop-entry label. */
ULabel
emitReadLoop(RomCtx &c, const char *name, ULabel after)
{
    ULabel loop = c.lbl();
    std::string n(name);
    c.bind(loop);
    c.emitRead(R, c.name(n + ".rd"), flowFall(),
               [](Ebox &e) { e.memRead(e.lat.t[0], 1); });
    // packedBytes(31 digits) = 16: the architectural byte bound.
    c.emit(R, c.name(n + ".st"),
           flowTo({loop, after}).withLoopBound(16),
           [loop, after](Ebox &e) {
        e.lat.strBuf[e.lat.t[2]++] = static_cast<uint8_t>(e.md());
        ++e.lat.t[0];
        if (--e.lat.t[1])
            e.uJump(loop);
        else
            e.uJump(after);
    });
    return loop;
}

/** Emit a byte-write loop: writes t[1] bytes from strBuf at t[2] to
 *  t[0].  Two cycles per byte. */
ULabel
emitWriteLoop(RomCtx &c, const char *name, ULabel after)
{
    ULabel loop = c.lbl();
    std::string n(name);
    c.bind(loop);
    c.emitWrite(R, c.name(n + ".wr"), flowFall(), [](Ebox &e) {
        e.memWrite(e.lat.t[0], e.lat.strBuf[e.lat.t[2]], 1);
    });
    c.emit(R, c.name(n + ".nx"),
           flowTo({loop, after}).withLoopBound(16),
           [loop, after](Ebox &e) {
        ++e.lat.t[2];
        ++e.lat.t[0];
        if (--e.lat.t[1])
            e.uJump(loop);
        else
            e.uJump(after);
    });
    return loop;
}

/** Emit a digit-processing loop burning sc cycles. */
ULabel
emitDigitLoop(RomCtx &c, const char *name, ULabel after)
{
    ULabel loop = c.lbl();
    c.bind(loop);
    // One cycle per digit, at most 31 digits per operand.
    c.emit(R, name, flowTo({loop, after}).withLoopBound(31),
           [loop, after](Ebox &e) {
        if (e.lat.sc > 1) {
            --e.lat.sc;
            e.uJump(loop);
        } else {
            e.uJump(after);
        }
    });
    return loop;
}

/** Decode strBuf[lo..) as packed decimal of `digits` digits. */
int64_t
decodeBuf(Ebox &e, unsigned lo, unsigned digits)
{
    std::vector<uint8_t> bytes(e.lat.strBuf + lo,
                               e.lat.strBuf + lo +
                                   packedBytes(digits));
    return packedToInt(bytes, digits);
}

/** Encode value into strBuf at lo. */
void
encodeBuf(Ebox &e, unsigned lo, unsigned digits, int64_t value)
{
    auto bytes = intToPacked(value, digits);
    for (size_t i = 0; i < bytes.size(); ++i)
        e.lat.strBuf[lo + i] = bytes[i];
}

void
setDecimalCc(Ebox &e, int64_t value)
{
    e.psl().cc.n = value < 0;
    e.psl().cc.z = value == 0;
    e.psl().cc.v = false;
    e.psl().cc.c = false;
}

void
buildAddP(RomCtx &c)
{
    // ADDP4/SUBP4 srclen.rw, srcaddr.ab, dstlen.rw, dstaddr.ab.
    ULabel rd_dst_setup = c.lbl(), decode = c.lbl(), digits = c.lbl();
    ULabel wb_setup = c.lbl(), fin = c.lbl();

    ULabel rd_src = c.lbl();
    execEntry(c, ExecFlow::AddP, G, "ADDP", flowTo(rd_src), [rd_src](Ebox &e) {
        e.lat.t[4] = e.lat.op[0] & 31;      // src digits
        e.lat.t[5] = e.lat.op[2] & 31;      // dst digits
        e.lat.t[0] = e.lat.op[1];
        e.lat.t[1] = packedBytes(e.lat.t[4]);
        e.lat.t[2] = 0;
        e.uJump(rd_src);
    });
    c.ua.bindAt(rd_src, c.ua.here());
    emitReadLoop(c, "ADDP.src", rd_dst_setup);

    c.bind(rd_dst_setup);
    c.emit(R, "ADDP.dsetup", flowFall(), [](Ebox &e) {
        e.lat.wide[0] = decodeBuf(e, 0, e.lat.t[4]);
        e.lat.t[0] = e.lat.op[3];
        e.lat.t[1] = packedBytes(e.lat.t[5]);
        e.lat.t[2] = 32;
    });
    emitReadLoop(c, "ADDP.dst", decode);

    c.bind(decode);
    c.emit(R, "ADDP.compute", flowTo(digits), [digits](Ebox &e) {
        int64_t src = e.lat.wide[0];
        int64_t dst = decodeBuf(e, 32, e.lat.t[5]);
        bool sub = e.lat.opcode == op::SUBP4;
        e.lat.wide[1] = sub ? dst - src : dst + src;
        e.lat.sc = e.lat.t[5] ? e.lat.t[5] : 1;
        e.uJump(digits);
    });
    c.ua.bindAt(digits, c.ua.here());
    emitDigitLoop(c, "ADDP.digit", wb_setup);

    c.bind(wb_setup);
    c.emit(R, "ADDP.wsetup", flowFall(), [](Ebox &e) {
        encodeBuf(e, 32, e.lat.t[5], e.lat.wide[1]);
        setDecimalCc(e, e.lat.wide[1]);
        e.lat.t[0] = e.lat.op[3];
        e.lat.t[1] = packedBytes(e.lat.t[5]);
        e.lat.t[2] = 32;
    });
    emitWriteLoop(c, "ADDP.wb", fin);

    c.bind(fin);
    c.emit(R, "ADDP.fin", flowEnd(), [](Ebox &e) {
        e.r(R0) = 0;
        e.r(R1) = e.lat.op[1];
        e.r(R2) = 0;
        e.r(R3) = e.lat.op[3];
        e.endInstruction();
    });
}

void
buildCmpMovP(RomCtx &c)
{
    // CMPP3 len.rw, src1addr.ab, src2addr.ab.
    {
        ULabel rd2_setup = c.lbl(), fin = c.lbl(), rd1 = c.lbl();
        execEntry(c, ExecFlow::CmpP, G, "CMPP", flowTo(rd1), [rd1](Ebox &e) {
            e.lat.t[4] = e.lat.op[0] & 31;
            e.lat.t[0] = e.lat.op[1];
            e.lat.t[1] = packedBytes(e.lat.t[4]);
            e.lat.t[2] = 0;
            e.uJump(rd1);
        });
        c.ua.bindAt(rd1, c.ua.here());
        emitReadLoop(c, "CMPP.s1", rd2_setup);
        c.bind(rd2_setup);
        c.emit(R, "CMPP.s2setup", flowFall(), [](Ebox &e) {
            e.lat.wide[0] = decodeBuf(e, 0, e.lat.t[4]);
            e.lat.t[0] = e.lat.op[2];
            e.lat.t[1] = packedBytes(e.lat.t[4]);
            e.lat.t[2] = 32;
        });
        emitReadLoop(c, "CMPP.s2", fin);
        c.bind(fin);
        c.emit(R, "CMPP.fin", flowEnd(), [](Ebox &e) {
            int64_t a = e.lat.wide[0];
            int64_t b = decodeBuf(e, 32, e.lat.t[4]);
            e.psl().cc.n = a < b;
            e.psl().cc.z = a == b;
            e.psl().cc.v = false;
            e.psl().cc.c = false;
            e.endInstruction();
        });
    }

    // MOVP len.rw, srcaddr.ab, dstaddr.ab.
    {
        ULabel wb_setup = c.lbl(), fin = c.lbl(), rd = c.lbl();
        execEntry(c, ExecFlow::MovP, G, "MOVP", flowTo(rd), [rd](Ebox &e) {
            e.lat.t[4] = e.lat.op[0] & 31;
            e.lat.t[0] = e.lat.op[1];
            e.lat.t[1] = packedBytes(e.lat.t[4]);
            e.lat.t[2] = 0;
            e.uJump(rd);
        });
        c.ua.bindAt(rd, c.ua.here());
        emitReadLoop(c, "MOVP.rd", wb_setup);
        c.bind(wb_setup);
        c.emit(R, "MOVP.wsetup", flowFall(), [](Ebox &e) {
            setDecimalCc(e, decodeBuf(e, 0, e.lat.t[4]));
            e.lat.t[0] = e.lat.op[2];
            e.lat.t[1] = packedBytes(e.lat.t[4]);
            e.lat.t[2] = 0;
        });
        emitWriteLoop(c, "MOVP.wb", fin);
        c.bind(fin);
        c.emit(R, "MOVP.fin", flowEnd(), [](Ebox &e) {
            e.r(R0) = 0;
            e.r(R1) = e.lat.op[1];
            e.r(R2) = 0;
            e.r(R3) = e.lat.op[2];
            e.endInstruction();
        });
    }
}

void
buildCvtAshP(RomCtx &c)
{
    // CVTPL len.rw, srcaddr.ab, dst.wl.
    {
        StoreTail st = makeStoreTail(c, R, "CVTPL");
        ULabel digits = c.lbl(), fin = c.lbl(), rd = c.lbl();
        execEntry(c, ExecFlow::CvtPL, G, "CVTPL", flowTo(rd), [rd](Ebox &e) {
            e.lat.t[4] = e.lat.op[0] & 31;
            e.lat.t[0] = e.lat.op[1];
            e.lat.t[1] = packedBytes(e.lat.t[4]);
            e.lat.t[2] = 0;
            e.uJump(rd);
        });
        c.ua.bindAt(rd, c.ua.here());
        emitReadLoop(c, "CVTPL.rd", digits);
        c.bind(digits);
        c.emit(R, "CVTPL.dec", flowFall(), [](Ebox &e) {
            e.lat.wide[0] = decodeBuf(e, 0, e.lat.t[4]);
            e.lat.sc = e.lat.t[4] ? e.lat.t[4] : 1;
        });
        emitDigitLoop(c, "CVTPL.digit", fin);
        c.bind(fin);
        c.emit(R, "CVTPL.fin", flowStore(st), [st](Ebox &e) {
            e.lat.t[0] = static_cast<uint32_t>(e.lat.wide[0]);
            setDecimalCc(e, e.lat.wide[0]);
            jumpStore(e, st);
        });
    }

    // CVTLP src.rl, len.rw, dstaddr.ab.
    {
        ULabel wb = c.lbl(), fin = c.lbl(), digits = c.lbl();
        execEntry(c, ExecFlow::CvtLP, G, "CVTLP", flowTo(digits),
                  [digits](Ebox &e) {
            e.lat.t[4] = e.lat.op[1] & 31;
            e.lat.wide[0] = static_cast<int32_t>(e.lat.op[0]);
            e.lat.sc = e.lat.t[4] ? e.lat.t[4] : 1;
            e.uJump(digits);
        });
        c.ua.bindAt(digits, c.ua.here());
        emitDigitLoop(c, "CVTLP.digit", wb);
        c.bind(wb);
        c.emit(R, "CVTLP.wsetup", flowFall(), [](Ebox &e) {
            encodeBuf(e, 0, e.lat.t[4], e.lat.wide[0]);
            setDecimalCc(e, e.lat.wide[0]);
            e.lat.t[0] = e.lat.op[2];
            e.lat.t[1] = packedBytes(e.lat.t[4]);
            e.lat.t[2] = 0;
        });
        emitWriteLoop(c, "CVTLP.wb", fin);
        c.bind(fin);
        c.emit(R, "CVTLP.fin", flowEnd(), [](Ebox &e) {
            e.r(R0) = 0;
            e.r(R1) = 0;
            e.r(R2) = 0;
            e.r(R3) = e.lat.op[2];
            e.endInstruction();
        });
    }

    // ASHP cnt.rb, srclen.rw, srcaddr.ab, round.rb, dstlen.rw,
    // dstaddr.ab: decimal scale by a power of ten.
    {
        ULabel decode = c.lbl(), digits = c.lbl(), wb = c.lbl();
        ULabel fin = c.lbl(), rd = c.lbl();
        execEntry(c, ExecFlow::AshP, G, "ASHP", flowTo(rd), [rd](Ebox &e) {
            e.lat.t[4] = e.lat.op[1] & 31; // src digits
            e.lat.t[5] = e.lat.op[4] & 31; // dst digits
            e.lat.t[0] = e.lat.op[2];
            e.lat.t[1] = packedBytes(e.lat.t[4]);
            e.lat.t[2] = 0;
            e.uJump(rd);
        });
        c.ua.bindAt(rd, c.ua.here());
        emitReadLoop(c, "ASHP.rd", decode);
        c.bind(decode);
        c.emit(R, "ASHP.scale", flowTo(digits), [digits](Ebox &e) {
            int64_t v = decodeBuf(e, 0, e.lat.t[4]);
            int8_t cnt = static_cast<int8_t>(e.lat.op[0]);
            if (cnt >= 0) {
                for (int i = 0; i < cnt && i < 18; ++i)
                    v *= 10;
            } else {
                int64_t div = 1;
                for (int i = 0; i < -cnt && i < 18; ++i)
                    div *= 10;
                int64_t round =
                    (static_cast<int64_t>(e.lat.op[3] & 0xFF)) *
                    (div / 10);
                v = (v + (v < 0 ? -round : round)) / div;
            }
            e.lat.wide[0] = v;
            e.lat.sc = e.lat.t[5] ? e.lat.t[5] : 1;
            e.uJump(digits);
        });
        c.ua.bindAt(digits, c.ua.here());
        emitDigitLoop(c, "ASHP.digit", wb);
        c.bind(wb);
        c.emit(R, "ASHP.wsetup", flowFall(), [](Ebox &e) {
            encodeBuf(e, 0, e.lat.t[5], e.lat.wide[0]);
            setDecimalCc(e, e.lat.wide[0]);
            e.lat.t[0] = e.lat.op[5];
            e.lat.t[1] = packedBytes(e.lat.t[5]);
            e.lat.t[2] = 0;
        });
        emitWriteLoop(c, "ASHP.wb", fin);
        c.bind(fin);
        c.emit(R, "ASHP.fin", flowEnd(), [](Ebox &e) {
            e.r(R0) = 0;
            e.r(R1) = e.lat.op[2];
            e.endInstruction();
        });
    }
}

} // anonymous namespace

void
buildDecimalFlows(RomCtx &c)
{
    buildAddP(c);
    buildCmpMovP(c);
    buildCvtAshP(c);
}

} // namespace vax
