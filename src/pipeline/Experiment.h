//===- pipeline/Experiment.h - Simulation + statistics harness -*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement harness of section 4.3: every block is simulated 30
/// times with fresh latency draws, bootstrapped to 100 sample means,
/// scaled by its profiled frequency and summed into 100 whole-program
/// runtimes; two schedulers are compared by pairing their 100 runtimes.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_PIPELINE_EXPERIMENT_H
#define BSCHED_PIPELINE_EXPERIMENT_H

#include "pipeline/Pipeline.h"
#include "sim/MemorySystem.h"
#include "sim/Processor.h"
#include "stats/Bootstrap.h"

#include <functional>

namespace bsched {

/// Simulation and statistics knobs (the paper's values by default).
struct SimulationConfig {
  ProcessorModel Processor;
  unsigned NumRuns = 30;       ///< Full simulations per block.
  unsigned NumResamples = 100; ///< Bootstrap sample means per block.
  uint64_t Seed = 0xB5C0FFEE;  ///< Root of all latency streams.
  LatencyModel Ops;            ///< Non-load latencies for the simulator.

  /// Observability sinks (DESIGN.md §3g): when Obs.Metrics is set the
  /// simulator records `bsched.sim.*` counters and the load-latency /
  /// outstanding-load histograms; when Obs.Trace is set each program
  /// simulation gets a "sim" span. Excluded from experiment cache keys —
  /// observation never changes the simulated cycles.
  ObsContext Obs;
};

/// A simulated program: bootstrap runtimes plus component accounting.
struct ProgramSimResult {
  /// The 100 bootstrap whole-program runtimes.
  std::vector<double> BootstrapRuntimes;

  /// Mean of the bootstrap runtimes (the reported runtime).
  double MeanRuntime = 0.0;

  /// Frequency-weighted instruction count (constant across runs).
  double DynamicInstructions = 0.0;

  /// Frequency-weighted mean interlock cycles.
  double MeanInterlockCycles = 0.0;

  /// The paper's TI% / BI%: interlock cycles as a share of runtime.
  double interlockPercent() const {
    return MeanRuntime == 0.0 ? 0.0
                              : 100.0 * MeanInterlockCycles / MeanRuntime;
  }
};

/// Simulates \p Program (a compiled function) on \p Memory: validates
/// \p Config and verifies \p Program, then simulates. Failures come back
/// as diagnostics instead of undefined behaviour under NDEBUG. The single
/// simulation entry point.
ErrorOr<ProgramSimResult> runSimulation(const CompiledFunction &Program,
                                        const MemorySystem &Memory,
                                        const SimulationConfig &Config);

/// Validates the caller-supplied simulation knobs (nonzero run and
/// resample counts, a sane processor model).
Status validateSimulationConfig(const SimulationConfig &Config);

/// The full comparison the paper's tables are built from: one program,
/// one memory system, one processor; traditional (at a given optimistic
/// latency) versus a candidate policy.
struct SchedulerComparison {
  CompiledFunction TraditionalCompiled;
  CompiledFunction CandidateCompiled;
  ProgramSimResult TraditionalSim;
  ProgramSimResult CandidateSim;
  ImprovementEstimate Improvement; ///< Positive = candidate faster.
};

/// Compiles \p Program under the traditional policy (load weight
/// \p OptimisticLatency) and under \p Candidate's policy, simulates both,
/// and pairs the bootstrap runtimes. \p Base supplies every other pipeline
/// knob (target registers, aliasing, op latencies). One malformed kernel
/// yields diagnostics rather than aborting a whole sweep; so does one
/// whose traditional runtime is not positive and finite (BS501), which
/// has no percentage improvement.
ErrorOr<SchedulerComparison>
runComparison(const Function &Program, const MemorySystem &Memory,
              double OptimisticLatency, const SimulationConfig &SimConfig,
              SchedulerPolicy Candidate = SchedulerPolicy::Balanced,
              PipelineConfig Base = {});

/// A pipeline-compilation callback with runPipeline's signature. The
/// experiment engine injects its memoizing compiler here so the comparison
/// driver exists exactly once.
using CompileFn = std::function<ErrorOr<CompiledFunction>(
    const Function &, const PipelineConfig &)>;

/// runComparison with \p Compile supplying both compilations (the engine's
/// cache-aware hook; runComparison itself passes runPipeline). Both calls
/// pass \p Program itself.
ErrorOr<SchedulerComparison>
runComparisonWith(const CompileFn &Compile, const Function &Program,
                  const MemorySystem &Memory, double OptimisticLatency,
                  const SimulationConfig &SimConfig,
                  SchedulerPolicy Candidate = SchedulerPolicy::Balanced,
                  PipelineConfig Base = {});

} // namespace bsched

#endif // BSCHED_PIPELINE_EXPERIMENT_H
