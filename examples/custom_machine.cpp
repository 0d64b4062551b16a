//===- examples/custom_machine.cpp - Exploring machine designs ------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// A design-space exploration example: because balanced scheduling is
// machine-independent ("schedules for the code instead of the machine"),
// a single compiled binary can be evaluated against many machine designs.
// We compile the MDG stand-in once per policy, then sweep processor
// limits and memory systems — including a user-defined bimodal memory
// model — without recompiling.
//
// Run: build/examples/custom_machine
//
//===----------------------------------------------------------------------===//

#include "pipeline/Experiment.h"
#include "support/FailPoint.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "workload/PerfectClub.h"

#include <cstdio>

using namespace bsched;

namespace {

// Exit codes: 1 = bad BSCHED_FAILPOINTS, 4 = pipeline/simulation failure.
constexpr int ExitUsageError = 1;
constexpr int ExitPipelineError = 4;

void printDiagnostics(const std::vector<Diagnostic> &Diags) {
  for (const Diagnostic &D : Diags)
    std::fprintf(stderr, "%s\n", D.formatted("<MDG>").c_str());
}

/// A custom memory system: a local/remote NUMA machine where 70% of
/// requests hit local memory (3 cycles) and 30% go remote with a noisy
/// network (N(12,4)). Implementing MemorySystem is all it takes to plug a
/// new design into the harness.
class NumaSystem final : public MemorySystem {
public:
  unsigned sampleLatency(Rng &R) const override {
    if (R.nextBernoulli(0.7))
      return 3;
    return Remote.sampleLatency(R);
  }
  double optimisticLatency() const override { return 3.0; }
  double effectiveLatency() const override {
    return 0.7 * 3.0 + 0.3 * Remote.effectiveLatency();
  }
  std::string name() const override { return "NUMA(3|N(12,4))"; }

private:
  NetworkSystem Remote{12, 4};
};

} // namespace

int main() {
  // A malformed BSCHED_FAILPOINTS arms nothing; running anyway would pass
  // a chaos run off as one.
  if (std::string Error = FailPointRegistry::instance().envError();
      !Error.empty()) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return ExitUsageError;
  }

  Function F = buildBenchmark(Benchmark::MDG);

  // Compile once per policy; the binaries are machine-independent.
  PipelineConfig TradConfig;
  TradConfig.Policy = SchedulerPolicy::Traditional;
  TradConfig.OptimisticLatency = 3.0;
  ErrorOr<CompiledFunction> Trad = runPipeline(F, TradConfig);
  if (!Trad) {
    printDiagnostics(Trad.errors());
    return ExitPipelineError;
  }

  PipelineConfig BalConfig;
  BalConfig.Policy = SchedulerPolicy::Balanced;
  ErrorOr<CompiledFunction> Bal = runPipeline(F, BalConfig);
  if (!Bal) {
    printDiagnostics(Bal.errors());
    return ExitPipelineError;
  }

  std::printf("MDG compiled once per policy (traditional fixed at the "
              "3-cycle local\nlatency), evaluated across machines without "
              "recompiling:\n\n");

  NumaSystem Numa;
  CacheSystem Cache(0.9, 2, 12);
  NetworkSystem Net(6, 3);
  const MemorySystem *Memories[] = {&Numa, &Cache, &Net};

  const ProcessorModel Processors[] = {
      ProcessorModel::unlimited(), ProcessorModel::maxOutstanding(8),
      ProcessorModel::maxOutstanding(4), ProcessorModel::maxLength(8),
      ProcessorModel::maxLength(4)};

  Table T;
  T.setHeader({"Memory", "Processor", "Trad cycles", "Bal cycles", "Imp%"});
  for (const MemorySystem *Memory : Memories) {
    for (const ProcessorModel &P : Processors) {
      SimulationConfig Sim;
      Sim.Processor = P;
      ErrorOr<ProgramSimResult> TradSim = runSimulation(*Trad, *Memory, Sim);
      ErrorOr<ProgramSimResult> BalSim = runSimulation(*Bal, *Memory, Sim);
      if (!TradSim || !BalSim) {
        printDiagnostics(!TradSim ? TradSim.errors() : BalSim.errors());
        return ExitPipelineError;
      }
      ImprovementEstimate Imp = pairedImprovement(
          TradSim->BootstrapRuntimes, BalSim->BootstrapRuntimes);
      T.addRow({Memory->name(), P.name(),
                formatDouble(TradSim->MeanRuntime / 1000.0, 0) + "k",
                formatDouble(BalSim->MeanRuntime / 1000.0, 0) + "k",
                formatPercent(Imp.MeanPercent)});
    }
    T.addSeparator();
  }
  T.print(stdout);
  std::printf("\nThe same balanced binary adapts to every design point — "
              "the paper's\ncentral argument for program-based rather than "
              "machine-based weights.\n");
  return 0;
}
