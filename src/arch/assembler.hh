/**
 * @file
 * A programmatic VAX assembler.
 *
 * Builds machine-code images for the simulator: the workload
 * generator, the OS image builder, the examples and the tests all
 * assemble through this interface.  Labels are integer ids into the
 * assembler's label table (the idiom MicroAssembler's ULabel uses);
 * sym() maps a name to its id for the symbols callers look up by
 * name.  Fixups are resolved in finish(); displacement-size
 * violations are user (generator) errors and fatal.
 */

#ifndef UPC780_ARCH_ASSEMBLER_HH
#define UPC780_ARCH_ASSEMBLER_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "arch/opcodes.hh"
#include "arch/specifiers.hh"
#include "arch/types.hh"
#include "support/logging.hh"

namespace vax
{

/** An assembler label: an index into one Assembler's label table. */
using Label = uint32_t;

/**
 * One operand of an instruction being assembled.
 *
 * Construct through the static factories; apply idx() to add an index
 * prefix to a memory-mode operand.
 */
class Operand
{
  public:
    /** Short literal 0..63 (modes 0-3). */
    static Operand
    lit(uint8_t value)
    {
        upc_assert(value < 64);
        return make(Kind::Literal, 0, value);
    }
    /** Register direct. */
    static Operand reg(uint8_t r) { return make(Kind::Register, gpr(r)); }
    /** Register deferred (Rn). */
    static Operand
    regDef(uint8_t r)
    {
        return make(Kind::RegDeferred, gpr(r));
    }
    /** Autoincrement (Rn)+. */
    static Operand
    autoInc(uint8_t r)
    {
        return make(Kind::AutoInc, gpr(r));
    }
    /** Autodecrement -(Rn). */
    static Operand
    autoDec(uint8_t r)
    {
        return make(Kind::AutoDec, gpr(r));
    }
    /** Autoincrement deferred @(Rn)+. */
    static Operand
    autoIncDef(uint8_t r)
    {
        return make(Kind::AutoIncDef, gpr(r));
    }
    /** Displacement d(Rn); smallest of byte/word/long chosen. */
    static Operand
    disp(int32_t d, uint8_t r)
    {
        return make(Kind::Disp, gpr(r), d);
    }
    /** Displacement deferred @d(Rn). */
    static Operand
    dispDef(int32_t d, uint8_t r)
    {
        return make(Kind::DispDef, gpr(r), d);
    }
    /**
     * Displacement d(Rn) with a forced field width of 1, 2 or 4
     * bytes (out-of-range d is fatal).  The auto-sizing disp() never
     * emits, say, w^0(Rn); generators that must exercise a specific
     * displacement mode -- the per-opcode characterization corpus --
     * need the width pinned.
     */
    static Operand dispWidth(int32_t d, uint8_t r, unsigned bytes);
    /** Displacement deferred @d(Rn) with a forced field width. */
    static Operand dispDefWidth(int32_t d, uint8_t r, unsigned bytes);
    /** Immediate I^#value ((PC)+); size follows the operand type. */
    static Operand
    imm(uint32_t value)
    {
        return make(Kind::Immediate, 0, static_cast<int32_t>(value));
    }
    /** Immediate whose value is the address of a label (long only). */
    static Operand
    immAddr(Label label)
    {
        return make(Kind::ImmediateLabel, 0, 0, label);
    }
    /** Absolute @#address. */
    static Operand
    absolute(uint32_t address)
    {
        return make(Kind::Absolute, 0, static_cast<int32_t>(address));
    }
    /** Absolute @#address whose value is the address of a label. */
    static Operand
    absoluteLabel(Label label)
    {
        return make(Kind::AbsoluteLabel, 0, 0, label);
    }
    /** PC-relative reference to a label (word displacement). */
    static Operand
    rel(Label label)
    {
        return make(Kind::RelLabel, 0, 0, label);
    }
    /** PC-relative deferred reference to a label. */
    static Operand
    relDef(Label label)
    {
        return make(Kind::RelDefLabel, 0, 0, label);
    }
    /** Branch displacement to a label (for 'b' operands only). */
    static Operand
    branch(Label label)
    {
        return make(Kind::BranchLabel, 0, 0, label);
    }

    /** Return a copy of this operand with an index register prefix. */
    Operand
    idx(uint8_t rx) const
    {
        upc_assert(kind_ != Kind::Literal && kind_ != Kind::Register &&
                   kind_ != Kind::Immediate && kind_ != Kind::BranchLabel);
        Operand o = *this;
        o.indexed_ = true;
        o.indexReg_ = gpr(rx);
        return o;
    }

    /** @{
     * Static introspection for instruction-profile consumers: the
     * characterization corpus records every emitted instruction's
     * specifier shape so the static bound analyzer (ubound) can
     * compose per-opcode cycle bounds without re-decoding the image.
     */
    /** True for branch-displacement operands (not specifiers). */
    bool isBranch() const { return kind_ == Kind::BranchLabel; }
    /** True when an index-prefix byte precedes the specifier. */
    bool isIndexed() const { return indexed_; }
    /**
     * Addressing mode this operand encodes to, mirroring the
     * emission rules exactly (auto-sized displacements included).
     * Fatal for branch operands, which have no specifier byte.
     */
    AddrMode specMode() const;
    /** @} */

  private:
    friend class Assembler;
    Operand() = default;

    enum class Kind : uint8_t {
        Literal, Register, RegDeferred, AutoInc, AutoDec, AutoIncDef,
        Disp, DispDef, Immediate, ImmediateLabel, Absolute,
        AbsoluteLabel, RelLabel, RelDefLabel, BranchLabel,
    };

    static Operand
    make(Kind kind, uint8_t reg, int32_t value = 0, Label label = 0)
    {
        Operand o;
        o.kind_ = kind;
        o.reg_ = reg;
        o.value_ = value;
        o.label_ = label;
        return o;
    }

    /** A general register usable as a base or index (not PC). */
    static uint8_t
    gpr(uint8_t r)
    {
        upc_assert(r < NumGpr && r != PC);
        return r;
    }

    Kind kind_ = Kind::Register;
    uint8_t reg_ = 0;
    uint8_t dispBytes_ = 0;    ///< forced disp width; 0 = auto-size
    bool indexed_ = false;
    uint8_t indexReg_ = 0;
    int32_t value_ = 0;        ///< literal / displacement / immediate
    Label label_ = 0;
};

/**
 * Assembles instructions and data into a contiguous image at a base
 * virtual address.
 */
class Assembler
{
  public:
    explicit Assembler(VirtAddr base);

    /** Allocate a new, unbound label. */
    Label newLabel();

    /**
     * The label named `name`, allocated unbound on first use.  For
     * the symbols a caller looks up by name (kernel data, test
     * fixtures); generated code uses newLabel() ids directly.
     */
    Label sym(std::string_view name);

    /** Bind a label to the current location (once). */
    void bind(Label l);

    /** Current location counter (virtual address). */
    VirtAddr
    here() const
    {
        return base_ + static_cast<VirtAddr>(image_.size());
    }

    /** Base virtual address of the image. */
    VirtAddr base() const { return base_; }

    /** Reserve image capacity for an expected size in bytes. */
    void reserve(size_t bytes) { image_.reserve(bytes); }

    /**
     * Assemble one instruction.
     *
     * The operand list must match the opcode's signature (count and
     * branch-displacement position); mismatches are fatal.
     */
    void instr(uint8_t opcode, std::span<const Operand> ops);
    void
    instr(uint8_t opcode, std::initializer_list<Operand> ops = {})
    {
        instr(opcode, std::span<const Operand>(ops.begin(), ops.size()));
    }

    /** @{ Raw data emission. */
    void byte(uint8_t v) { image_.push_back(v); }
    void word(uint16_t v) { putBytes(v, 2); }
    void lword(uint32_t v) { putBytes(v, 4); }
    void ascii(const std::string &s);
    void space(unsigned n, uint8_t fill = 0);
    void align(unsigned a);

    /** Emit n little-endian longwords, the i-th being gen() (called
     *  in order): bulk data without a call per byte. */
    template <typename Gen>
    void
    lwords(size_t n, Gen &&gen)
    {
        size_t at = image_.size();
        image_.resize(at + 4 * n);
        uint8_t *p = image_.data() + at;
        for (size_t i = 0; i < n; ++i, p += 4) {
            uint32_t v = gen();
            p[0] = static_cast<uint8_t>(v);
            p[1] = static_cast<uint8_t>(v >> 8);
            p[2] = static_cast<uint8_t>(v >> 16);
            p[3] = static_cast<uint8_t>(v >> 24);
        }
    }
    /** @} */

    /** Emit a longword holding the address of a label (abs fixup). */
    void addrLong(Label l);

    /**
     * Emit a CASEx displacement table.
     *
     * Word displacements relative to the table start, one per target
     * label, as the CASE instruction expects.
     */
    void caseTable(std::initializer_list<Label> targets);

    /** Entry mask longword-pair for CALLS targets: emit a 16-bit mask. */
    void entryMask(uint16_t mask) { word(mask); }

    /** Resolve fixups and hand over the image. Call exactly once. */
    std::vector<uint8_t> finish();

    /** Address of a bound label (fatal if unbound); valid anytime. */
    VirtAddr addrOf(Label l) const;

    /**
     * Observer called once per assembled instruction (after the
     * opcode/operand validation, before emission) with the opcode's
     * metadata and the operand list.  The characterization corpus
     * uses it to build an exact static instruction profile of the
     * image it emits.
     */
    using InstrHook = std::function<void(const OpcodeInfo &,
                                         std::span<const Operand>)>;
    void setInstrHook(InstrHook hook) { instrHook_ = std::move(hook); }

  private:
    enum class FixKind : uint8_t {
        BranchByte,   ///< 1-byte branch displacement
        BranchWord,   ///< 2-byte branch displacement
        RelWord,      ///< word displacement off PC in a specifier
        AbsLong,      ///< 32-bit absolute address
        CaseWord,     ///< word offset from a case-table base
    };

    struct Fixup
    {
        FixKind kind;
        Label label;
        uint32_t offset;      ///< where the field lives in the image
        VirtAddr nextPc;      ///< address just after the field
        VirtAddr tableBase;   ///< for CaseWord
    };

    struct LabelSlot
    {
        VirtAddr addr = 0;
        bool bound = false;
    };

    void emitOperand(const Operand &op, const OperandDef &def);
    /** Reserve an n-byte field patched by finish(). */
    void fixup(FixKind kind, Label l, unsigned n, VirtAddr table_base = 0);

    void
    putBytes(uint64_t v, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            image_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    /** A label's symbol name, or "#id" for an anonymous one. */
    std::string labelName(Label l) const;

    VirtAddr base_;
    const OpcodeInfo *optab_;
    InstrHook instrHook_;
    std::vector<uint8_t> image_;
    std::vector<LabelSlot> labels_;
    std::map<std::string, Label, std::less<>> symbols_;
    std::vector<Fixup> fixups_;
    bool finished_ = false;
};

} // namespace vax

#endif // UPC780_ARCH_ASSEMBLER_HH
