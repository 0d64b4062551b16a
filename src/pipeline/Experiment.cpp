//===- pipeline/Experiment.cpp - Simulation + statistics harness ------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "pipeline/Experiment.h"

#include "ir/IrVerifier.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sim/Simulator.h"
#include "support/FailPoint.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <optional>

using namespace bsched;

namespace {

/// The raw measurement loop of section 4.3, after Program has been
/// verified: 30 simulations per block, bootstrapped to 100 sample means,
/// frequency-scaled and summed. Every latency stream is seeded from
/// (Config.Seed, block, run) — never shared — so the result is a pure
/// function of the inputs regardless of which thread or order runs it.
ProgramSimResult simulateVerified(const CompiledFunction &Program,
                                  const MemorySystem &Memory,
                                  const SimulationConfig &Config) {
  ProgramSimResult Result;
  Result.BootstrapRuntimes.assign(Config.NumResamples, 0.0);

  std::string SimArgs;
  if (Config.Obs.Trace) {
    JsonWriter Args;
    Args.beginObject();
    Args.key("function").value(Program.Compiled.name());
    Args.key("processor").value(Config.Processor.name());
    Args.endObject();
    SimArgs = Args.str();
  }
  ScopedSpan SimSpan(Config.Obs.Trace, "sim", "phase", std::move(SimArgs));

  // Tallied per program and folded into the registry when Instruments
  // goes out of scope.
  std::optional<SimInstruments> Instruments;
  if (Config.Obs.Metrics)
    Instruments.emplace(*Config.Obs.Metrics);
  SimInstruments *Obs = Instruments ? &*Instruments : nullptr;

  const Function &F = Program.Compiled;
  DecodedBlock Decoded;
  std::vector<double> Samples;
  Samples.reserve(Config.NumRuns);
  for (unsigned BlockIndex = 0; BlockIndex != F.numBlocks(); ++BlockIndex) {
    const BasicBlock &BB = F.block(BlockIndex);

    // 30 independent full simulations of the block (section 4.3), all
    // from one decode.
    Decoded.decode(BB, Config.Ops);
    Samples.clear();
    double InterlockSum = 0.0;
    for (unsigned Run = 0; Run != Config.NumRuns; ++Run) {
      // A private, order-independent latency stream per (block, run).
      Rng R(Config.Seed ^ (0x9E3779B97F4A7C15ULL * (BlockIndex + 1)) ^
            (0xD1B54A32D192ED03ULL * (Run + 1)));
      BlockSimResult Sim = Decoded.run(Config.Processor, Memory, R, Obs);
      Samples.push_back(static_cast<double>(Sim.Cycles));
      InterlockSum += static_cast<double>(Sim.InterlockCycles);
    }

    // 100 bootstrap means, scaled by profiled frequency and summed into
    // the program runtimes.
    Rng BootRng(Config.Seed ^ (0xA0761D6478BD642FULL * (BlockIndex + 7)));
    std::vector<double> Means =
        bootstrapMeans(Samples, Config.NumResamples, BootRng);
    for (unsigned I = 0; I != Config.NumResamples; ++I)
      Result.BootstrapRuntimes[I] += BB.frequency() * Means[I];

    Result.DynamicInstructions += BB.frequency() * BB.size();
    Result.MeanInterlockCycles +=
        BB.frequency() * (InterlockSum / Config.NumRuns);
  }

  Result.MeanRuntime = mean(Result.BootstrapRuntimes);
  return Result;
}

} // namespace

Status bsched::validateSimulationConfig(const SimulationConfig &Config) {
  std::vector<Diagnostic> Diags;
  auto BadConfig = [&](std::string Message) {
    Diags.push_back({0, 0, std::move(Message), Severity::Error,
                     DiagCode::SimBadConfig});
  };
  if (Config.NumRuns == 0)
    BadConfig("simulation requires at least one run per block");
  if (Config.NumResamples == 0)
    BadConfig("bootstrap requires at least one resample");
  if (Config.Processor.IssueWidth == 0)
    BadConfig("processor issue width must be at least 1");
  if (Config.Processor.Kind != ProcessorKind::Unlimited &&
      Config.Processor.Limit == 0)
    BadConfig("outstanding-load limit must be at least 1 for " +
              Config.Processor.name());
  return Status(std::move(Diags));
}

ErrorOr<ProgramSimResult>
bsched::runSimulation(const CompiledFunction &Program,
                      const MemorySystem &Memory,
                      const SimulationConfig &Config) {
  Status ConfigStatus = validateSimulationConfig(Config);
  if (!ConfigStatus.ok())
    return ErrorOr<ProgramSimResult>(ConfigStatus.diagnostics());

  // The "sim" fail point models the simulator dying at entry, keyed by
  // the program name so a given simulation faults identically whether its
  // cell runs serially or across the engine pool.
  if (anyFailPointsEnabled()) {
    if (std::optional<Diagnostic> D = checkFailPoint(
            failpoints::Sim, stableHash(Program.Compiled.name()))) {
      std::vector<Diagnostic> Diags;
      Diags.push_back(std::move(*D));
      return ErrorOr<ProgramSimResult>(std::move(Diags));
    }
  }

  std::vector<Diagnostic> ProgramDiags = verifyFunction(Program.Compiled);
  if (!verifyClean(ProgramDiags)) {
    std::vector<Diagnostic> Diags;
    Diags.push_back({0, 0,
                     "cannot simulate invalid program '" +
                         Program.Compiled.name() + "'",
                     Severity::Error, DiagCode::PipelineInvalidInput});
    for (Diagnostic &D : ProgramDiags)
      Diags.push_back(std::move(D));
    return ErrorOr<ProgramSimResult>(std::move(Diags));
  }
  return simulateVerified(Program, Memory, Config);
}

ErrorOr<SchedulerComparison>
bsched::runComparisonWith(const CompileFn &Compile, const Function &Program,
                          const MemorySystem &Memory,
                          double OptimisticLatency,
                          const SimulationConfig &SimConfig,
                          SchedulerPolicy Candidate, PipelineConfig Base) {
  SchedulerComparison Comparison;

  PipelineConfig TradConfig = Base;
  TradConfig.Policy = SchedulerPolicy::Traditional;
  TradConfig.OptimisticLatency = OptimisticLatency;
  ErrorOr<CompiledFunction> Trad = Compile(Program, TradConfig);
  if (!Trad)
    return ErrorOr<SchedulerComparison>(Trad.takeErrors());
  Comparison.TraditionalCompiled = std::move(*Trad);

  PipelineConfig CandConfig = Base;
  CandConfig.Policy = Candidate;
  ErrorOr<CompiledFunction> Cand = Compile(Program, CandConfig);
  if (!Cand)
    return ErrorOr<SchedulerComparison>(Cand.takeErrors());
  Comparison.CandidateCompiled = std::move(*Cand);

  ErrorOr<ProgramSimResult> TradSim =
      runSimulation(Comparison.TraditionalCompiled, Memory, SimConfig);
  if (!TradSim)
    return ErrorOr<SchedulerComparison>(TradSim.takeErrors());
  Comparison.TraditionalSim = std::move(*TradSim);

  ErrorOr<ProgramSimResult> CandSim =
      runSimulation(Comparison.CandidateCompiled, Memory, SimConfig);
  if (!CandSim)
    return ErrorOr<SchedulerComparison>(CandSim.takeErrors());
  Comparison.CandidateSim = std::move(*CandSim);

  Comparison.Improvement =
      pairedImprovement(Comparison.TraditionalSim.BootstrapRuntimes,
                        Comparison.CandidateSim.BootstrapRuntimes);
  return Comparison;
}

ErrorOr<SchedulerComparison>
bsched::runComparison(const Function &Program, const MemorySystem &Memory,
                      double OptimisticLatency,
                      const SimulationConfig &SimConfig,
                      SchedulerPolicy Candidate, PipelineConfig Base) {
  return runComparisonWith(
      [](const Function &F, const PipelineConfig &Config) {
        return runPipeline(F, Config);
      },
      Program, Memory, OptimisticLatency, SimConfig, Candidate,
      std::move(Base));
}
