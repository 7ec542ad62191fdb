/**
 * @file
 * Internal context shared by the rom_*.cc microcode builders.
 *
 * Every emit helper takes an explicit UFlow: the builder declares the
 * successor edges of each microword alongside its annotation, and the
 * static verifier (src/analysis) lints the declared micro-CFG while
 * the EBOX can check executed transitions against it.
 */

#ifndef UPC780_UCODE_ROM_CTX_HH
#define UPC780_UCODE_ROM_CTX_HH

#include "cpu/ebox.hh"
#include "ucode/control_store.hh"
#include "ucode/uops.hh"

namespace vax
{

struct RomCtx
{
    explicit RomCtx(ControlStore &cs) : ua(cs), ep(cs.entries) {}

    MicroAssembler ua;
    EntryPoints &ep;

    UAnnotation
    ann(Row row, const char *name) const
    {
        UAnnotation a;
        a.row = row;
        a.name = name;
        return a;
    }

    // The emit helpers forward the callable's concrete type to
    // MicroAssembler::emit, which packs its captures into the operand
    // arena (a type-erased wrapper here would fail its plain-data
    // static_assert).

    /** Plain compute microword. */
    template <typename F>
    UAddr
    emit(Row row, const char *name, UFlow f, F &&s)
    {
        return ua.emit(ann(row, name), std::move(f),
                       std::forward<F>(s));
    }

    /** Microword that issues a D-stream (or physical) read. */
    template <typename F>
    UAddr
    emitRead(Row row, const char *name, UFlow f, F &&s)
    {
        UAnnotation a = ann(row, name);
        a.mem = UMemKind::Read;
        return ua.emit(a, std::move(f), std::forward<F>(s));
    }

    /** Microword that issues a write. */
    template <typename F>
    UAddr
    emitWrite(Row row, const char *name, UFlow f, F &&s)
    {
        UAnnotation a = ann(row, name);
        a.mem = UMemKind::Write;
        return ua.emit(a, std::move(f), std::forward<F>(s));
    }

    /** Microword that requests bytes from the IB (may IB-stall). */
    template <typename F>
    UAddr
    emitIb(Row row, const char *name, UFlow f, F &&s)
    {
        UAnnotation a = ann(row, name);
        a.ibRequest = true;
        return ua.emit(a, std::move(f), std::forward<F>(s));
    }

    /** Fully-specified microword. */
    template <typename F>
    UAddr
    emitFull(UAnnotation a, UFlow f, F &&s)
    {
        return ua.emit(a, std::move(f), std::forward<F>(s));
    }

    ULabel lbl() { return ua.newLabel(); }
    void bind(ULabel l) { ua.bind(l); }

    /** A generated annotation name, kept alive by the store. */
    const char *
    name(std::string s)
    {
        return ua.store().internName(std::move(s));
    }
};

/** @{ Builders, one per microcode area (rom_*.cc). */
void buildFramework(RomCtx &c);
void buildSpecifierRoutines(RomCtx &c);
void buildMmMicrocode(RomCtx &c);
void buildSimpleFlows(RomCtx &c);
void buildFieldFlows(RomCtx &c);
void buildFloatFlows(RomCtx &c);
void buildCallRetFlows(RomCtx &c);
void buildSystemFlows(RomCtx &c);
void buildCharacterFlows(RomCtx &c);
void buildDecimalFlows(RomCtx &c);
/** @} */

/**
 * Register an execute-flow entry point.  The entry microword carries
 * the ExecEntry mark so the analyzer can count Table 1 frequencies.
 */
template <typename F>
inline UAddr
execEntry(RomCtx &c, ExecFlow flow, Group group, const char *name,
          UFlow f, F &&s, UMemKind mem = UMemKind::None,
          bool ib_request = false)
{
    UAnnotation a = c.ann(execRowFor(group), name);
    a.mark = UMark::ExecEntry;
    a.flow = flow;
    a.mem = mem;
    a.ibRequest = ib_request;
    UAddr addr = c.ua.emit(a, std::move(f), std::forward<F>(s));
    c.ep.exec[static_cast<size_t>(flow)] = addr;
    return addr;
}

/**
 * Emit the store-result tail of a flow: two microwords (register
 * destination / memory destination) that store lat.t[0] into
 * lat.dst[0], set N/Z, and end the instruction.  Flows jump into the
 * right one with jumpStore().  Keeping the memory variant distinct
 * means every execution of a write-annotated microword really is a
 * write -- the property Table 5's counting relies on.
 */
struct StoreTail
{
    ULabel reg;
    ULabel mem;
};

StoreTail makeStoreTail(RomCtx &c, Row row, const char *name);

/** Jump to the right store tail for dst[dst_idx]. */
inline void
jumpStore(Ebox &e, const StoreTail &st, unsigned dst_idx = 0)
{
    e.uJump(e.lat.dst[dst_idx].kind == DstLatch::Kind::Reg ? st.reg
                                                           : st.mem);
}

/** Successor declaration matching jumpStore(): either tail. */
inline UFlow
flowStore(const StoreTail &st)
{
    return flowTo({st.reg, st.mem});
}

/**
 * Emit the taken-branch tail of a PC-changing flow: a B-DISP microword
 * that fetches the displacement and computes the target into lat.t[7],
 * and a redirect microword (marked BranchTaken) in the flow's own row.
 * Returns the label of the B-DISP microword.
 */
ULabel makeTakenTail(RomCtx &c, Row exec_row, PcChangeKind pck,
                     const char *name);

/** Not-taken epilogue: skip the displacement bytes and end. */
inline void
branchNotTaken(Ebox &e)
{
    e.ibSkip(e.lat.info->bdispBytes);
    e.endInstruction();
}

} // namespace vax

#endif // UPC780_UCODE_ROM_CTX_HH
