/**
 * @file
 * Shared helpers for simulator unit tests: assemble a fragment, load
 * it into physical memory with mapping disabled, run to HALT; the
 * opcode parameters of the per-opcode suites; the FNV-1a digest the
 * golden tests pin.
 */

#ifndef UPC780_TESTS_SIM_TEST_UTIL_HH
#define UPC780_TESTS_SIM_TEST_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/assembler.hh"
#include "arch/opcodes.hh"
#include "cpu/cpu.hh"
#include "upc/monitor.hh"

namespace vax::test
{

/** A CPU with a program loaded at a flat (unmapped) address. */
struct BareMachine
{
    explicit BareMachine(uint32_t base = 0x1000)
        : asmblr(base)
    {
        cpu = std::make_unique<Cpu780>();
        cpu->mem().setMapEnable(false);
        cpu->setCycleSink(&monitor);
    }

    /** Finish assembly, load, set SP, and run until HALT. */
    bool
    run(uint64_t max_cycles = 2'000'000, uint32_t sp = 0x20000)
    {
        auto image = asmblr.finish();
        cpu->mem().phys().load(asmblr.base(), image);
        cpu->reset(asmblr.base());
        cpu->ebox().setGpr(SP, sp);
        return cpu->run(max_cycles);
    }

    uint32_t gpr(unsigned r) const { return cpu->ebox().gpr(r); }

    uint32_t
    readLong(uint32_t pa) const
    {
        return cpu->mem().phys().read(pa, 4);
    }

    Assembler asmblr;
    UpcMonitor monitor;
    std::unique_ptr<Cpu780> cpu;
};

/** Every implemented opcode encoding except those in skip, in
 *  ascending order: the parameters of the per-opcode suites. */
inline std::vector<int>
implementedOpcodes(std::initializer_list<int> skip = {})
{
    std::vector<int> opcodes;
    for (int opc = 0; opc < 256; ++opc)
        if (opcodeInfo(static_cast<uint8_t>(opc)).valid &&
            std::find(skip.begin(), skip.end(), opc) == skip.end())
            opcodes.push_back(opc);
    return opcodes;
}

/** Name a per-opcode case by its opcode value (e.g. .../193). */
inline std::string
opcodeCaseName(const ::testing::TestParamInfo<int> &info)
{
    return std::to_string(info.param);
}

/** @{ FNV-1a 64, the digest the golden tests pin.  Integers are fed
 *  little-endian, so a digest does not depend on the host. */
constexpr uint64_t fnvBasis = 0xcbf29ce484222325ull;

inline uint64_t
fnvBytes(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Feed the low `bytes` bytes of v. */
inline uint64_t
fnvLe(uint64_t h, uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i) {
        h ^= static_cast<uint8_t>(v >> (8 * i));
        h *= 0x100000001b3ull;
    }
    return h;
}

/** A digest spelled as the literal a golden table holds. */
inline std::string
hexDigest(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxull",
                  static_cast<unsigned long long>(v));
    return buf;
}
/** @} */

} // namespace vax::test

#endif // UPC780_TESTS_SIM_TEST_UTIL_HH
