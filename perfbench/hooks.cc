/**
 * @file
 * Link-time interposers (ld --wrap, listed in CMakeLists.txt) around
 * the public entry points of each simulator module.  Every call made
 * anywhere in the simulator -- a SimPool worker, a campaign shard, the
 * uchar suite -- passes through here, so the benchmark times the
 * modules from the outside without a line of benchmark code inside
 * them.  Each wrapper opens a span (a no-op unless tracing is on) and
 * forwards to the real definition; the two simulation loops also
 * stamp the first simulated cycle, which setup_s needs untraced.
 *
 * The declarations below restate each function's Itanium ABI
 * signature (member functions take `this` first, constructors return
 * nothing).  A signature change in the simulator shows up as an
 * unresolved __real_ symbol at link time.
 */

#include <sys/stat.h>

#include <cstdint>
#include <string>

#include "cpu/cpu.hh"
#include "os/vms.hh"
#include "spans.hh"
#include "ucode/control_store.hh"
#include "upc/ucharacterize.hh"
#include "workload/experiments.hh"

using perfbench::Span;

extern "C" {

// ---- ucode: buildMicrocodeRom(ControlStore &) ----
void __real__ZN3vax17buildMicrocodeRomERNS_12ControlStoreE(
    vax::ControlStore &cs);
void
__wrap__ZN3vax17buildMicrocodeRomERNS_12ControlStoreE(
    vax::ControlStore &cs)
{
    Span s("ucode.rom_build");
    __real__ZN3vax17buildMicrocodeRomERNS_12ControlStoreE(cs);
    s.setCount(cs.size());
}

// ---- mem: PhysicalMemory::PhysicalMemory(uint32_t) ----
void __real__ZN3vax14PhysicalMemoryC1Ej(void *self, uint32_t bytes);
void
__wrap__ZN3vax14PhysicalMemoryC1Ej(void *self, uint32_t bytes)
{
    Span s("mem.phys_alloc");
    __real__ZN3vax14PhysicalMemoryC1Ej(self, bytes);
    s.setCount(bytes);
}

// ---- cpu: Cpu780::Cpu780(const SimConfig &), Cpu780::run(uint64_t) --
void __real__ZN3vax6Cpu780C1ERKNS_9SimConfigE(void *self,
                                              const vax::SimConfig &c);
void
__wrap__ZN3vax6Cpu780C1ERKNS_9SimConfigE(void *self,
                                         const vax::SimConfig &c)
{
    Span s("cpu.ctor");
    __real__ZN3vax6Cpu780C1ERKNS_9SimConfigE(self, c);
}

bool __real__ZN3vax6Cpu7803runEm(vax::Cpu780 *self, uint64_t max);
bool
__wrap__ZN3vax6Cpu7803runEm(vax::Cpu780 *self, uint64_t max)
{
    perfbench::noteSimStart();
    Span s("cpu.run");
    uint64_t c0 = self->cycles();
    bool r = __real__ZN3vax6Cpu7803runEm(self, max);
    s.setCount(self->cycles() - c0);
    return r;
}

// ---- workload: CodeGenerator::generate(unsigned) ----
vax::UserProgram __real__ZN3vax13CodeGenerator8generateEj(void *self,
                                                          unsigned t);
vax::UserProgram
__wrap__ZN3vax13CodeGenerator8generateEj(void *self, unsigned t)
{
    Span s("workload.codegen");
    vax::UserProgram p = __real__ZN3vax13CodeGenerator8generateEj(self, t);
    s.setCount(p.image.size());
    return p;
}

// ---- os: VmsLite::boot() ----
void __real__ZN3vax7VmsLite4bootEv(void *self);
void
__wrap__ZN3vax7VmsLite4bootEv(void *self)
{
    Span s("os.boot");
    __real__ZN3vax7VmsLite4bootEv(self);
}

// ---- workload: the Experiment constructor (one job's whole setup) --
void __real__ZN3vax10ExperimentC1ERKNS_15WorkloadProfileEmRKNS_9SimConfigERKNS_9VmsConfigERKNS_9RunLimitsE(
    void *self, const vax::WorkloadProfile &p, uint64_t cycles,
    const vax::SimConfig &sim, const vax::VmsConfig &vms,
    const vax::RunLimits &limits);
void
__wrap__ZN3vax10ExperimentC1ERKNS_15WorkloadProfileEmRKNS_9SimConfigERKNS_9VmsConfigERKNS_9RunLimitsE(
    void *self, const vax::WorkloadProfile &p, uint64_t cycles,
    const vax::SimConfig &sim, const vax::VmsConfig &vms,
    const vax::RunLimits &limits)
{
    // A worker constructs one Experiment per job, so the constructor
    // marks where the thread's next job begins.
    if (perfbench::tracing())
        perfbench::beginJob();
    Span s("workload.experiment_ctor");
    __real__ZN3vax10ExperimentC1ERKNS_15WorkloadProfileEmRKNS_9SimConfigERKNS_9VmsConfigERKNS_9RunLimitsE(
        self, p, cycles, sim, vms, limits);
}

// ---- cpu: Experiment::runChunk(uint64_t), the simulation loop ----
bool __real__ZN3vax10Experiment8runChunkEm(vax::Experiment *self,
                                          uint64_t chunk);
bool
__wrap__ZN3vax10Experiment8runChunkEm(vax::Experiment *self,
                                      uint64_t chunk)
{
    perfbench::noteSimStart();
    Span s("cpu.run_chunk");
    uint64_t c0 = self->cycle();
    bool r = __real__ZN3vax10Experiment8runChunkEm(self, chunk);
    s.setCount(self->cycle() - c0);
    return r;
}

// ---- driver: Experiment::saveFile(path), the job checkpoint ----
bool __real__ZNK3vax10Experiment8saveFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const vax::Experiment *self, const std::string &path);
bool
__wrap__ZNK3vax10Experiment8saveFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const vax::Experiment *self, const std::string &path)
{
    Span s("driver.checkpoint_save");
    bool ok =
        __real__ZNK3vax10Experiment8saveFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
            self, path);
    struct stat st{};
    if (perfbench::tracing() && ::stat(path.c_str(), &st) == 0)
        s.setCount(static_cast<uint64_t>(st.st_size));
    return ok;
}

// ---- upc: runUcharProgram, one characterization variant ----
vax::UcharOutcome __real__ZN3vax15runUcharProgramERKNS_12UcharProgramERKNS_11UcharParamsE(
    const vax::UcharProgram &prog, const vax::UcharParams &params);
vax::UcharOutcome
__wrap__ZN3vax15runUcharProgramERKNS_12UcharProgramERKNS_11UcharParamsE(
    const vax::UcharProgram &prog, const vax::UcharParams &params)
{
    if (perfbench::tracing())
        perfbench::beginJob();
    Span s("upc.uchar_program");
    return __real__ZN3vax15runUcharProgramERKNS_12UcharProgramERKNS_11UcharParamsE(
        prog, params);
}

} // extern "C"
