/**
 * @file
 * Disk-device tests: the CHMK disk service blocks the process, the
 * controller callback fires with the right process index, and the
 * completion interrupt wakes the process.
 */

#include <gtest/gtest.h>

#include "arch/assembler.hh"
#include "cpu/cpu.hh"
#include "os/abi.hh"
#include "os/vms.hh"
#include "upc/monitor.hh"
#include "workload/experiments.hh"

namespace vax::test
{

using Op = Operand;

namespace
{

UserProgram
diskLoopProgram()
{
    Assembler a(0);
    a.lword(0);
    a.bind(a.sym("count"));
    a.lword(0);
    a.bind(a.sym("entry"));
    a.bind(a.sym("loop"));
    a.instr(op::INCL, {Op::rel(a.sym("count"))});
    a.instr(op::CHMK, {Op::imm(abi::sysDiskRead)});
    a.instr(op::BRB, {Op::branch(a.sym("loop"))});
    UserProgram prog;
    prog.entry = a.addrOf(a.sym("entry"));
    prog.image = a.finish();
    return prog;
}

} // anonymous namespace

TEST(Disk, RequestBlocksUntilCompletion)
{
    Cpu780 cpu;
    UpcMonitor monitor;
    cpu.setCycleSink(&monitor);
    VmsLite os(cpu, monitor);
    os.addProcess(diskLoopProgram());

    std::vector<uint32_t> requests;
    os.onDiskRequest([&](uint32_t proc) { requests.push_back(proc); });
    os.boot();

    cpu.run(60000);
    // Exactly one request from process 0, then blocked.
    ASSERT_EQ(requests.size(), 1u);
    EXPECT_EQ(requests[0], 0u);
    uint32_t before =
        cpu.mem().phys().read(os.processImagePa(0) + 4, 4);
    EXPECT_EQ(before, 1u);

    // Stays blocked without a completion.
    cpu.run(60000);
    EXPECT_EQ(cpu.mem().phys().read(os.processImagePa(0) + 4, 4),
              before);
    ASSERT_EQ(requests.size(), 1u);

    // Completion wakes it; it issues the next transfer.
    os.postDiskCompletion(0);
    cpu.run(60000);
    EXPECT_GT(cpu.mem().phys().read(os.processImagePa(0) + 4, 4),
              before);
    EXPECT_EQ(requests.size(), 2u);
}

TEST(Disk, CompletionsWakeTheRightProcess)
{
    Cpu780 cpu;
    UpcMonitor monitor;
    cpu.setCycleSink(&monitor);
    VmsLite os(cpu, monitor);
    os.addProcess(diskLoopProgram());
    os.addProcess(diskLoopProgram());
    os.addProcess(diskLoopProgram());

    std::vector<uint32_t> requests;
    os.onDiskRequest([&](uint32_t proc) { requests.push_back(proc); });
    os.boot();
    cpu.run(150000);
    // All three requested once and blocked.
    ASSERT_EQ(requests.size(), 3u);

    // Wake only process 1.
    os.postDiskCompletion(1);
    cpu.run(100000);
    uint32_t c0 = cpu.mem().phys().read(os.processImagePa(0) + 4, 4);
    uint32_t c1 = cpu.mem().phys().read(os.processImagePa(1) + 4, 4);
    uint32_t c2 = cpu.mem().phys().read(os.processImagePa(2) + 4, 4);
    EXPECT_EQ(c0, 1u);
    EXPECT_EQ(c1, 2u); // progressed
    EXPECT_EQ(c2, 1u);
}

TEST(Disk, ExperimentCountsTransfers)
{
    WorkloadProfile prof = commercialProfile();
    prof.numUsers = 6;
    ExperimentResult r = runExperiment(prof, 250000);
    // The commercial load does transactional I/O: some disk traffic
    // must have flowed and completed.
    EXPECT_GT(r.hw.diskTransfers, 0u);
}

} // namespace vax::test
