#include "arch/assembler.hh"

#include "support/bitutil.hh"
#include "support/logging.hh"

namespace vax
{

Operand
Operand::dispWidth(int32_t d, uint8_t r, unsigned bytes)
{
    if (!((bytes == 1 && d >= -128 && d <= 127) ||
          (bytes == 2 && d >= -32768 && d <= 32767) || bytes == 4))
        fatal("assembler: displacement %d does not fit %u byte(s)", d,
              bytes);
    Operand o = disp(d, r);
    o.dispBytes_ = static_cast<uint8_t>(bytes);
    return o;
}

Operand
Operand::dispDefWidth(int32_t d, uint8_t r, unsigned bytes)
{
    Operand o = dispWidth(d, r, bytes);
    o.kind_ = Kind::DispDef;
    return o;
}

AddrMode
Operand::specMode() const
{
    switch (kind_) {
      case Kind::Literal:        return AddrMode::ShortLiteral;
      case Kind::Register:       return AddrMode::Register;
      case Kind::RegDeferred:    return AddrMode::RegDeferred;
      case Kind::AutoInc:        return AddrMode::AutoInc;
      case Kind::AutoDec:        return AddrMode::AutoDec;
      case Kind::AutoIncDef:     return AddrMode::AutoIncDef;
      case Kind::Immediate:
      case Kind::ImmediateLabel: return AddrMode::Immediate;
      case Kind::Absolute:
      case Kind::AbsoluteLabel:  return AddrMode::Absolute;
      case Kind::Disp:
      case Kind::DispDef: {
        bool deferred = kind_ == Kind::DispDef;
        unsigned forced = dispBytes_;
        if (forced == 1 || (!forced && value_ >= -128 && value_ <= 127))
            return deferred ? AddrMode::ByteDispDef
                            : AddrMode::ByteDisp;
        if (forced == 2 ||
            (!forced && value_ >= -32768 && value_ <= 32767))
            return deferred ? AddrMode::WordDispDef
                            : AddrMode::WordDisp;
        return deferred ? AddrMode::LongDispDef : AddrMode::LongDisp;
      }
      case Kind::RelLabel:       return AddrMode::WordDisp;
      case Kind::RelDefLabel:    return AddrMode::WordDispDef;
      case Kind::BranchLabel:    break;
    }
    fatal("assembler: branch operand has no addressing mode");
}

Assembler::Assembler(VirtAddr base)
    : base_(base), optab_(opcodeTable().data())
{
}

Label
Assembler::newLabel()
{
    labels_.emplace_back();
    return static_cast<Label>(labels_.size() - 1);
}

Label
Assembler::sym(std::string_view name)
{
    auto it = symbols_.find(name);
    if (it != symbols_.end())
        return it->second;
    Label l = newLabel();
    symbols_.emplace(std::string(name), l);
    return l;
}

std::string
Assembler::labelName(Label l) const
{
    for (const auto &[name, id] : symbols_)
        if (id == l)
            return name;
    // Appended, not "#" + std::to_string(l): that form trips GCC 12's
    // -Wrestrict false positive at -O3 (GCC bug 105651).
    std::string name = "#";
    name += std::to_string(l);
    return name;
}

void
Assembler::bind(Label l)
{
    if (l >= labels_.size())
        fatal("assembler: unknown label #%u", l);
    if (labels_[l].bound)
        fatal("assembler: duplicate label '%s'", labelName(l).c_str());
    labels_[l] = {here(), true};
}

void
Assembler::ascii(const std::string &s)
{
    image_.insert(image_.end(), s.begin(), s.end());
}

void
Assembler::space(unsigned n, uint8_t fill)
{
    image_.insert(image_.end(), n, fill);
}

void
Assembler::align(unsigned a)
{
    upc_assert(isPowerOf2(a));
    while (here() % a)
        image_.push_back(0);
}

void
Assembler::fixup(FixKind kind, Label l, unsigned n, VirtAddr table_base)
{
    if (l >= labels_.size())
        fatal("assembler: unknown label #%u", l);
    fixups_.push_back({kind, l, static_cast<uint32_t>(image_.size()),
                       here() + n, table_base});
    putBytes(0, n);
}

void
Assembler::addrLong(Label l)
{
    fixup(FixKind::AbsLong, l, 4);
}

void
Assembler::caseTable(std::initializer_list<Label> targets)
{
    VirtAddr table_base = here();
    for (Label t : targets)
        fixup(FixKind::CaseWord, t, 2, table_base);
}

void
Assembler::emitOperand(const Operand &op, const OperandDef &def)
{
    using K = Operand::Kind;

    if (def.access == Access::Branch) {
        if (op.kind_ != K::BranchLabel)
            fatal("assembler: branch operand must be a branch label");
        unsigned n = dataTypeBytes(def.type);
        fixup(n == 1 ? FixKind::BranchByte : FixKind::BranchWord,
              op.label_, n);
        return;
    }

    if (op.kind_ == K::BranchLabel)
        fatal("assembler: branch label used as a general operand");

    if (op.indexed_)
        image_.push_back(static_cast<uint8_t>(0x40 | op.indexReg_));

    switch (op.kind_) {
      case K::Literal:
        if (def.access != Access::Read)
            fatal("assembler: literal with non-read access");
        image_.push_back(static_cast<uint8_t>(op.value_ & 0x3F));
        break;
      case K::Register:
        image_.push_back(static_cast<uint8_t>(0x50 | op.reg_));
        break;
      case K::RegDeferred:
        image_.push_back(static_cast<uint8_t>(0x60 | op.reg_));
        break;
      case K::AutoDec:
        image_.push_back(static_cast<uint8_t>(0x70 | op.reg_));
        break;
      case K::AutoInc:
        image_.push_back(static_cast<uint8_t>(0x80 | op.reg_));
        break;
      case K::AutoIncDef:
        image_.push_back(static_cast<uint8_t>(0x90 | op.reg_));
        break;
      case K::Immediate:
        if (def.access != Access::Read)
            fatal("assembler: immediate with non-read access");
        image_.push_back(0x8F);
        putBytes(static_cast<uint32_t>(op.value_),
                 dataTypeBytes(def.type));
        break;
      case K::ImmediateLabel:
        if (def.access != Access::Read ||
            dataTypeBytes(def.type) != 4)
            fatal("assembler: immAddr needs a longword read operand");
        image_.push_back(0x8F);
        fixup(FixKind::AbsLong, op.label_, 4);
        break;
      case K::Absolute:
        image_.push_back(0x9F);
        putBytes(static_cast<uint32_t>(op.value_), 4);
        break;
      case K::AbsoluteLabel:
        image_.push_back(0x9F);
        fixup(FixKind::AbsLong, op.label_, 4);
        break;
      case K::Disp:
      case K::DispDef: {
        bool deferred = op.kind_ == K::DispDef;
        int32_t d = op.value_;
        unsigned forced = op.dispBytes_;
        if (forced == 1 || (!forced && d >= -128 && d <= 127)) {
            image_.push_back(
                static_cast<uint8_t>((deferred ? 0xB0 : 0xA0) | op.reg_));
            putBytes(static_cast<uint32_t>(d), 1);
        } else if (forced == 2 ||
                   (!forced && d >= -32768 && d <= 32767)) {
            image_.push_back(
                static_cast<uint8_t>((deferred ? 0xD0 : 0xC0) | op.reg_));
            putBytes(static_cast<uint32_t>(d), 2);
        } else {
            image_.push_back(
                static_cast<uint8_t>((deferred ? 0xF0 : 0xE0) | op.reg_));
            putBytes(static_cast<uint32_t>(d), 4);
        }
        break;
      }
      case K::RelLabel:
      case K::RelDefLabel: {
        bool deferred = op.kind_ == K::RelDefLabel;
        // Word-displacement PC-relative form.
        image_.push_back(static_cast<uint8_t>((deferred ? 0xD0 : 0xC0) | PC));
        fixup(FixKind::RelWord, op.label_, 2);
        break;
      }
      case K::BranchLabel:
        break; // handled above
    }
}

void
Assembler::instr(uint8_t opcode, std::span<const Operand> ops)
{
    const OpcodeInfo &info = optab_[opcode];
    if (!info.valid)
        fatal("assembler: opcode %#x not implemented", opcode);
    if (ops.size() != info.numOperands)
        fatal("assembler: %s expects %u operands, got %zu",
              info.mnemonic, info.numOperands, ops.size());
    if (instrHook_)
        instrHook_(info, ops);
    image_.push_back(opcode);
    for (unsigned i = 0; i < info.numOperands; ++i)
        emitOperand(ops[i], info.operands[i]);
}

VirtAddr
Assembler::addrOf(Label l) const
{
    if (l >= labels_.size() || !labels_[l].bound)
        fatal("assembler: undefined label '%s'", labelName(l).c_str());
    return labels_[l].addr;
}

std::vector<uint8_t>
Assembler::finish()
{
    upc_assert(!finished_);
    finished_ = true;
    for (const auto &f : fixups_) {
        VirtAddr target = addrOf(f.label);
        int64_t value = 0;
        switch (f.kind) {
          case FixKind::BranchByte:
            value = static_cast<int64_t>(target) - f.nextPc;
            if (value < -128 || value > 127)
                fatal("assembler: byte branch to '%s' out of range (%lld)",
                      labelName(f.label).c_str(),
                      static_cast<long long>(value));
            image_[f.offset] = static_cast<uint8_t>(value);
            break;
          case FixKind::BranchWord:
          case FixKind::RelWord:
            value = static_cast<int64_t>(target) - f.nextPc;
            if (value < -32768 || value > 32767)
                fatal("assembler: word displacement to '%s' out of range",
                      labelName(f.label).c_str());
            image_[f.offset] = static_cast<uint8_t>(value);
            image_[f.offset + 1] = static_cast<uint8_t>(value >> 8);
            break;
          case FixKind::AbsLong:
            for (unsigned i = 0; i < 4; ++i)
                image_[f.offset + i] =
                    static_cast<uint8_t>(target >> (8 * i));
            break;
          case FixKind::CaseWord:
            value = static_cast<int64_t>(target) - f.tableBase;
            if (value < -32768 || value > 32767)
                fatal("assembler: case displacement to '%s' out of range",
                      labelName(f.label).c_str());
            image_[f.offset] = static_cast<uint8_t>(value);
            image_[f.offset + 1] = static_cast<uint8_t>(value >> 8);
            break;
        }
    }
    return std::move(image_);
}

} // namespace vax
