/**
 * @file
 * Golden digests of the five-workload composite.
 *
 * upc780 exists to regenerate the paper's tables from a micro-PC
 * histogram, so no change to the dispatch engine, the ROM, the memory
 * system, the OS, merging or the stats mirror may move a single UPC
 * count.  These tests pin that end to end: per paper workload, an
 * FNV-1a 64 digest of both histogram banks, every hardware counter
 * and the data-reference totals after 60k cycles, and the digest of
 * the composite's full stats dump.  Any behavioural drift anywhere
 * in the simulation fails here.
 */

#include <cstdint>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "driver/sim_pool.hh"
#include "support/stats.hh"
#include "tests/sim_test_util.hh"
#include "workload/experiments.hh"

namespace vax::test
{

namespace
{

/** Cycles per experiment: small enough to keep the suite quick, large
 *  enough that every profile gets through boot and into real work. */
constexpr uint64_t kCycles = 60'000;

/** Both histogram banks, every HwCounters field (through its stats
 *  mirror, so a new counter is covered too) and the data-reference
 *  totals of one experiment. */
uint64_t
resultDigest(const ExperimentResult &r)
{
    uint64_t h = fnvBasis;
    for (uint64_t v : r.hist.normal)
        h = fnvLe(h, v, 8);
    for (uint64_t v : r.hist.stalled)
        h = fnvLe(h, v, 8);
    stats::Registry reg;
    r.hw.counters.regStats(reg, "hw");
    const std::string counters = reg.dumpJson();
    h = fnvBytes(h, counters.data(), counters.size());
    h = fnvLe(h, r.hw.dataReads, 8);
    return fnvLe(h, r.hw.dataWrites, 8);
}

} // anonymous namespace

TEST(CompositeGolden, WorkloadDigests)
{
    struct Golden
    {
        const char *name;
        uint64_t instructions;
        uint64_t fnv;
    };
    static const Golden golden[] = {
        {"timesharing-light", 6595, 0x72324e51c087cc1aull},
        {"timesharing-heavy", 6294, 0x90748e5efedf32abull},
        {"educational", 6601, 0x57006a84c63e2d96ull},
        {"scientific", 7350, 0x6f1eeeae86972d91ull},
        {"commercial", 6610, 0x55320a1e2d5f73caull},
    };
    const CompositeResult comp = runCompositePooled(kCycles, 2);
    ASSERT_EQ(comp.parts.size(), std::size(golden));
    for (size_t i = 0; i < comp.parts.size(); ++i) {
        const ExperimentResult &r = comp.parts[i];
        const uint64_t h = resultDigest(r);
        EXPECT_EQ(r.name, golden[i].name);
        EXPECT_EQ(r.hw.counters.instructions, golden[i].instructions)
            << r.name;
        EXPECT_EQ(h, golden[i].fnv) << r.name << " got " << hexDigest(h);
    }
}

TEST(CompositeGolden, CompositeStatsDump)
{
    // The composite's full deterministic stats mirror: the merged
    // banks and totals plus every part's counters, as the table
    // benches dump them with --stats-json.
    const CompositeResult comp = runCompositePooled(kCycles, 2);
    stats::Registry reg;
    registerCompositeStats(reg, comp);
    const std::string json = reg.dumpJson();
    const uint64_t h = fnvBytes(fnvBasis, json.data(), json.size());
    EXPECT_EQ(json.size(), 21569u);
    EXPECT_EQ(h, 0xa16601e95485e319ull) << "got " << hexDigest(h);
}

} // namespace vax::test
