#include "ucode/control_store.hh"

#include <algorithm>
#include <cstddef>
#include <iterator>

#include "support/logging.hh"

namespace vax
{

const char *
rowName(Row r)
{
    switch (r) {
      case Row::Decode:        return "Decode";
      case Row::Spec1:         return "SPEC1";
      case Row::Spec26:        return "SPEC2-6";
      case Row::Bdisp:         return "B-DISP";
      case Row::ExecSimple:    return "Simple";
      case Row::ExecField:     return "Field";
      case Row::ExecFloat:     return "Float";
      case Row::ExecCallRet:   return "Call/Ret";
      case Row::ExecSystem:    return "System";
      case Row::ExecCharacter: return "Character";
      case Row::ExecDecimal:   return "Decimal";
      case Row::IntExcept:     return "Int/Except";
      case Row::MemMgmt:       return "Mem Mgmt";
      case Row::Abort:         return "Abort";
      default:                 return "?";
    }
}

Row
execRowFor(Group g)
{
    switch (g) {
      case Group::Simple:    return Row::ExecSimple;
      case Group::Field:     return Row::ExecField;
      case Group::Float:     return Row::ExecFloat;
      case Group::CallRet:   return Row::ExecCallRet;
      case Group::System:    return Row::ExecSystem;
      case Group::Character: return Row::ExecCharacter;
      case Group::Decimal:   return Row::ExecDecimal;
      default: panic("bad group");
    }
}

const char *
timeColName(TimeCol c)
{
    switch (c) {
      case TimeCol::Compute: return "Compute";
      case TimeCol::Read:    return "Read";
      case TimeCol::RStall:  return "R-Stall";
      case TimeCol::Write:   return "Write";
      case TimeCol::WStall:  return "W-Stall";
      case TimeCol::IbStall: return "IB-Stall";
      default:               return "?";
    }
}

TimeColPair
timeColsFor(const UAnnotation &ann)
{
    switch (ann.mem) {
      case UMemKind::Read:
        return {TimeCol::Read, TimeCol::RStall, true};
      case UMemKind::Write:
        return {TimeCol::Write, TimeCol::WStall, true};
      case UMemKind::None:
        break;
    }
    // Only IB requesters may stall at a non-memory word.
    return {TimeCol::Compute, TimeCol::IbStall, ann.ibRequest};
}

void
badBranchOperandClass()
{
    panic("branch operand has no specifier class");
}

void
badMicroAddress(UAddr a, size_t size)
{
    if (a == kInvalidUAddr)
        panic("micro-address is the kInvalidUAddr sentinel: dispatch "
              "through an unset entry-point slot");
    panic("micro-address %u outside the %zu-word control store",
          static_cast<unsigned>(a), size);
}

void
ControlStore::badLabel(ULabel l) const
{
    if (l >= labels_.size())
        panic("micro-label %u outside the %zu-entry label table", l,
              labels_.size());
    panic("microcode label %u used but never bound", l);
}

namespace
{

void
pushValid(std::vector<UAddr> &v, UAddr a)
{
    if (a != kInvalidUAddr)
        v.push_back(a);
}

} // anonymous namespace

void
ControlStore::resolveFlows()
{
    const size_t n = anns_.size();
    succ_.assign(n, {});

    // The decode dispatch set: everything trySpecDispatch(),
    // decodeOpcode() and nextSpecOrExec() can select.  A single set
    // for both specifier positions is a deliberate over-approximation;
    // the verifier's entry checks keep the tables themselves honest.
    std::vector<UAddr> dispatch_set;
    pushValid(dispatch_set, entries.specWait[0]);
    pushValid(dispatch_set, entries.specWait[1]);
    pushValid(dispatch_set, entries.indexPrefix[0]);
    pushValid(dispatch_set, entries.indexPrefix[1]);
    for (const auto &mode : entries.spec)
        for (const auto &pos : mode)
            for (UAddr cls : pos)
                pushValid(dispatch_set, cls);
    for (UAddr e : entries.exec)
        pushValid(dispatch_set, e);

    // The index prefix dispatches into the SPEC2-6 copy of the base
    // mode routine (Ebox::spec26Entry).
    std::vector<UAddr> spec26_set;
    for (const auto &mode : entries.spec)
        for (UAddr cls : mode[1])
            pushValid(spec26_set, cls);

    // endInstruction() resolves to IID, or to the interrupt or
    // machine-check dispatch when one is pending.
    std::vector<UAddr> end_set;
    pushValid(end_set, entries.iid);
    pushValid(end_set, entries.interrupt);
    pushValid(end_set, entries.machineCheck);

    // uRet() returns to some recorded call site + 1.  With a single
    // micro-subroutine this global set is exact; with more it is the
    // usual sound over-approximation.
    std::vector<UAddr> ret_set;
    for (size_t a = 0; a < n; ++a)
        if (!flows_[a].calls.empty() && a + 1 < n)
            ret_set.push_back(static_cast<UAddr>(a + 1));

    // The shared sets are large (the dispatch set has hundreds of
    // entries), so each combination a word can declare is sorted and
    // merged once, and every word only sorts its own few targets.
    auto sortUnique = [](std::vector<UAddr> &v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    const std::vector<UAddr> *sets[] = {&end_set, &dispatch_set,
                                        &spec26_set, &ret_set};
    std::array<std::vector<UAddr>, 16> shared;
    std::array<bool, 16> built{};
    auto sharedFor = [&](unsigned mask) -> const std::vector<UAddr> & {
        if (!built[mask]) {
            for (unsigned i = 0; i < 4; ++i)
                if (mask & (1u << i))
                    shared[mask].insert(shared[mask].end(),
                                        sets[i]->begin(), sets[i]->end());
            sortUnique(shared[mask]);
            built[mask] = true;
        }
        return shared[mask];
    };

    std::vector<UAddr> own;
    for (size_t a = 0; a < n; ++a) {
        const UFlow &f = flows_[a];
        own.clear();
        if (f.fall && a + 1 < n)
            own.push_back(static_cast<UAddr>(a + 1));
        for (ULabel l : f.targets) {
            int32_t t = labelBinding(l);
            if (t >= 0 && static_cast<size_t>(t) < n)
                own.push_back(static_cast<UAddr>(t));
        }
        for (ULabel l : f.calls) {
            int32_t t = labelBinding(l);
            if (t >= 0 && static_cast<size_t>(t) < n)
                own.push_back(static_cast<UAddr>(t));
        }
        for (UAddr t : f.rawTargets)
            if (t < n)
                own.push_back(t);
        sortUnique(own);
        unsigned mask = (f.end ? 1u : 0u) | (f.dispatch ? 2u : 0u) |
            (f.spec26 ? 4u : 0u) | (f.ret ? 8u : 0u);
        std::vector<UAddr> &s = succ_[a];
        if (!mask) {
            s = own;
            continue;
        }
        const std::vector<UAddr> &sh = sharedFor(mask);
        s.reserve(own.size() + sh.size());
        std::set_union(own.begin(), own.end(), sh.begin(), sh.end(),
                       std::back_inserter(s));
    }
    resolved_ = true;
}

const std::vector<UAddr> &
ControlStore::successors(UAddr a) const
{
    upc_assert(resolved_);
    check(a);
    return succ_[a];
}

bool
ControlStore::flowAllows(UAddr from, UAddr to) const
{
    const std::vector<UAddr> &s = successors(from);
    return std::binary_search(s.begin(), s.end(), to);
}

void *
ControlStore::semArenaAlloc(size_t size, size_t align)
{
    constexpr size_t chunkBytes = 64 * 1024;
    upc_assert(size <= chunkBytes && align <= alignof(std::max_align_t));
    size_t at = (semChunkUsed_ + align - 1) & ~(align - 1);
    if (semChunks_.empty() || at + size > chunkBytes) {
        semChunks_.push_back(
            std::make_unique<unsigned char[]>(chunkBytes));
        at = 0;
    }
    semChunkUsed_ = at + size;
    return semChunks_.back().get() + at;
}

const char *
ControlStore::internName(std::string name)
{
    return names_.emplace_back(std::move(name)).c_str();
}

UAddr
MicroAssembler::emitWord(const UAnnotation &ann, UFlow flow,
                         DecodedWord decoded)
{
    if (cs_.anns_.size() >= ControlStore::capacity)
        panic("control store exceeds the %u-location histogram board",
              ControlStore::capacity);
    cs_.anns_.push_back(ann);
    cs_.decoded_.push_back(decoded);
    cs_.flows_.push_back(std::move(flow));
    cs_.resolved_ = false;
    return static_cast<UAddr>(cs_.anns_.size() - 1);
}

ULabel
MicroAssembler::newLabel()
{
    cs_.labels_.push_back(-1);
    return static_cast<ULabel>(cs_.labels_.size() - 1);
}

void
MicroAssembler::bind(ULabel l)
{
    bindAt(l, here());
}

void
MicroAssembler::bindAt(ULabel l, UAddr a)
{
    upc_assert(l < cs_.labels_.size());
    upc_assert(cs_.labels_[l] < 0);
    cs_.labels_[l] = a;
}

} // namespace vax
