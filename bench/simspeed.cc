/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: raw
 * machine-cycle throughput in several regimes, histogram analysis
 * cost, workload generation and machine construction cost, checkpoint
 * serialization cost, and the five-workload composite in both serial
 * and SimPool-parallel form.
 *
 * Usage: simspeed [--jobs N] [google-benchmark flags]
 *   --jobs (or UPC780_JOBS) sets the pool worker count for the
 *   BM_CompositePool benchmark; default is one per hardware core.
 *   UPC780_CYCLES sets the composite's cycles per experiment
 *   (default 250000 here, to keep iterations short).
 *
 * Machine-readable output: pass the standard google-benchmark flags
 *   --benchmark_out=FILE.json --benchmark_out_format=json
 * to write a JSON report.  The committed baseline lives in
 * BENCH_simspeed.json at the repo root; compare a fresh run against
 * it with tools/bench_compare (the CI perf-smoke job does exactly
 * that and fails on a >30% throughput regression).
 */

#include <benchmark/benchmark.h>

#include "arch/assembler.hh"
#include "driver/sim_pool.hh"
#include "ucode/rom.hh"
#include "cpu/cpu.hh"
#include "support/snapshot.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"
#include "workload/codegen.hh"
#include "workload/experiments.hh"

namespace
{

using namespace vax;

/** Pool worker count from --jobs / UPC780_JOBS (0 = all cores). */
unsigned g_jobs = 0;

/** Tight register-only loop: peak interpreter speed. */
void
BM_CycleThroughputRegisters(benchmark::State &state)
{
    Cpu780 cpu;
    cpu.mem().setMapEnable(false);
    Assembler a(0x1000);
    Label loop = a.newLabel();
    a.bind(loop);
    for (int i = 0; i < 16; ++i)
        a.instr(op::ADDL2, {Operand::lit(1), Operand::reg(R1)});
    a.instr(op::BRW, {Operand::branch(loop)});
    cpu.mem().phys().load(a.base(), a.finish());
    cpu.reset(a.base());
    cpu.ebox().setGpr(SP, 0x8000);

    for (auto _ : state) {
        cpu.tick();
        benchmark::DoNotOptimize(cpu.cycles());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CycleThroughputRegisters);

/** Memory-heavy loop: cache/TB path cost. */
void
BM_CycleThroughputMemory(benchmark::State &state)
{
    Cpu780 cpu;
    cpu.mem().setMapEnable(false);
    Assembler a(0x1000);
    a.instr(op::MOVL, {Operand::imm(0x40000), Operand::reg(R2)});
    Label loop = a.newLabel();
    a.bind(loop);
    for (int i = 0; i < 8; ++i) {
        a.instr(op::MOVL, {Operand::disp(4 * i, R2),
                           Operand::reg(R1)});
        a.instr(op::MOVL, {Operand::reg(R1),
                           Operand::disp(4 * i + 64, R2)});
    }
    a.instr(op::BRW, {Operand::branch(loop)});
    cpu.mem().phys().load(a.base(), a.finish());
    cpu.reset(a.base());
    cpu.ebox().setGpr(SP, 0x8000);

    for (auto _ : state) {
        cpu.tick();
        benchmark::DoNotOptimize(cpu.cycles());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CycleThroughputMemory);

/**
 * Cycle cost with the UPC monitor attached (should be ~free).  The
 * monitor must actually observe every iterated cycle -- otherwise the
 * benchmark would be timing a disconnected fast path and the "~free"
 * claim would be vacuous -- so the count is asserted afterwards.
 */
void
BM_CycleThroughputMonitored(benchmark::State &state)
{
    Cpu780 cpu;
    UpcMonitor mon;
    cpu.setCycleSink(&mon);
    cpu.mem().setMapEnable(false);
    Assembler a(0x1000);
    Label loop = a.newLabel();
    a.bind(loop);
    for (int i = 0; i < 16; ++i)
        a.instr(op::ADDL2, {Operand::lit(1), Operand::reg(R1)});
    a.instr(op::BRW, {Operand::branch(loop)});
    cpu.mem().phys().load(a.base(), a.finish());
    cpu.reset(a.base());
    cpu.ebox().setGpr(SP, 0x8000);
    uint64_t before = mon.histogram().cycles();

    for (auto _ : state) {
        cpu.tick();
        benchmark::DoNotOptimize(cpu.cycles());
    }

    uint64_t counted = mon.histogram().cycles() - before;
    if (counted != static_cast<uint64_t>(state.iterations()))
        state.SkipWithError("monitor lost cycles");
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CycleThroughputMonitored);

/** Full ROM construction (per-CPU startup cost). */
void
BM_RomBuild(benchmark::State &state)
{
    for (auto _ : state) {
        ControlStore cs;
        buildMicrocodeRom(cs);
        benchmark::DoNotOptimize(cs.size());
    }
}
BENCHMARK(BM_RomBuild);

/** Workload program generation (one educational user program). */
void
BM_CodeGeneration(benchmark::State &state)
{
    WorkloadProfile prof = educationalProfile();
    uint64_t seed = 1;
    for (auto _ : state) {
        CodeGenerator gen(prof, seed++);
        UserProgram prog = gen.generate(0);
        benchmark::DoNotOptimize(prog.image.size());
    }
}
BENCHMARK(BM_CodeGeneration);

/**
 * Building the five paper machines, as a composite does before its
 * first simulated cycle: ROM build, generation of every user program,
 * VMS-lite boot into zeroed physical memory, and teardown.  This is
 * the fixed cost each job pays; scored on real time.
 */
void
BM_ExperimentSetup(benchmark::State &state)
{
    std::vector<SimJob> jobs = compositeJobs(benchCycles(250'000));
    for (auto _ : state) {
        for (const SimJob &job : jobs) {
            Experiment exp(job.profile, job.cycles, job.sim, job.vms);
            benchmark::DoNotOptimize(exp.cycle());
        }
    }
}
BENCHMARK(BM_ExperimentSetup)->Unit(benchmark::kMillisecond)->UseRealTime();

/**
 * One checkpoint serialization (Experiment::save + finish, no file
 * I/O) of the commercial workload booted and run to 100k cycles, the
 * state a campaign shard checkpoints: RLE over the 8 MB physical
 * memory image plus every section CRC.  Scored on real time, so a
 * serializer regression shows up in the perf gate.
 */
void
BM_CheckpointSave(benchmark::State &state)
{
    SimJob job = SimJob::forProfile(commercialProfile(), 400'000);
    Experiment exp(job.profile, job.cycles, job.sim, job.vms);
    exp.runChunk(100'000);
    for (auto _ : state) {
        snap::Serializer s;
        exp.save(s);
        std::vector<uint8_t> image = s.finish();
        benchmark::DoNotOptimize(image.data());
    }
}
BENCHMARK(BM_CheckpointSave)->Unit(benchmark::kMillisecond)->UseRealTime();

/**
 * The populated histogram that BM_HistogramAnalysis chews on.  Built
 * here, in a helper the benchmark calls before its timing loop, so
 * the 200k-cycle experiment can never leak into a timed region (the
 * old function-local static initialised mid-benchmark, inflating the
 * first sample the iteration-count estimator sees).
 */
const ExperimentResult &
analysisInput()
{
    static const ExperimentResult result =
        runExperiment(timesharingLightProfile(), 200000);
    return result;
}

/** Histogram analysis over a populated histogram. */
void
BM_HistogramAnalysis(benchmark::State &state)
{
    const ExperimentResult &result = analysisInput();
    Cpu780 ref;
    for (auto _ : state) {
        HistogramAnalyzer an(ref.controlStore(), result.hist);
        benchmark::DoNotOptimize(an.cyclesPerInstruction());
    }
}
BENCHMARK(BM_HistogramAnalysis);

/**
 * The five-workload composite (the Table 8 scenario) on a SimPool.
 * Items processed = simulated machine cycles, so items/s is the
 * aggregate simulation rate.  Both rows are scored on real time: the
 * pool's work runs on worker threads, so the main thread's CPU time
 * would hide any pool regression.  Per-job wall-clock and simulated
 * cycles-per-second are reported as counters (job0..job4, in
 * allProfiles() order).
 */
void
compositeBench(benchmark::State &state, unsigned workers)
{
    uint64_t cycles = benchCycles(250'000);
    SimPool pool(workers);
    std::vector<SimJob> jobs = compositeJobs(cycles);
    uint64_t total_sim_cycles = 0;
    std::vector<ExperimentResult> last;
    for (auto _ : state) {
        last = pool.run(jobs);
        // Sum the cycles each experiment actually retired.  The old
        // `cycles * jobs.size()` assumed every job stops exactly on
        // its budget, but a job can halt early or overshoot to an
        // instruction boundary, so the assumption miscounts the
        // aggregate rate.
        for (const ExperimentResult &r : last)
            total_sim_cycles += r.hw.counters.cycles;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(total_sim_cycles));
    state.counters["workers"] =
        static_cast<double>(pool.workers());
    for (size_t i = 0; i < last.size(); ++i) {
        std::string tag = "job" + std::to_string(i);
        state.counters[tag + "_wall_s"] = last[i].wallSeconds;
        state.counters[tag + "_Msimcyc_per_s"] =
            last[i].wallSeconds > 0
                ? cycles / last[i].wallSeconds * 1e-6
                : 0.0;
    }
}

void
BM_CompositeSerial(benchmark::State &state)
{
    compositeBench(state, 1);
}
BENCHMARK(BM_CompositeSerial)->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_CompositePool(benchmark::State &state)
{
    compositeBench(state, g_jobs);
}
BENCHMARK(BM_CompositePool)->Unit(benchmark::kMillisecond)->UseRealTime();

} // anonymous namespace

int
main(int argc, char **argv)
{
    g_jobs = parseJobsFlag(&argc, argv, envJobs());
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
