//===- perfbench/driver/PaperTables.cpp - The paper-tables workload -------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
//
// The reproduction's own use: the experiment-engine matrices of Tables 2,
// 3 and 5 (211 cells: Perfect Club stand-ins x memory systems x UNLIMITED,
// MAX-8 and LEN-8), each repetition on a fresh ExperimentEngine with
// EngineWorkers workers, the seed driving SimulationConfig::Seed. It is
// the only workload where simulation and the bootstrap run.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Oracle.h"
#include "Replay.h"
#include "Tracer.h"

#include "bench/BenchCommon.h"
#include "ir/IrPrinter.h"

#include <map>
#include <set>

using namespace bsched;
using namespace perfbench;

namespace {

/// Two engine workers, not Concurrency: with four, the workers share the
/// VM's four vCPUs with the driver and whatever the host runs beside it,
/// and in interleaved runs throughput swung 15% (IQR/median) instead of 5%.
constexpr unsigned EngineWorkers = 2;

struct PaperMatrix {
  std::vector<std::pair<Benchmark, Function>> Programs;
  std::vector<bench::SystemRow> Systems;
  NetworkSystem N30{30, 5};
  std::vector<ExperimentCell> Cells;
};

/// The cells of bench_table2_unlimited, bench_table3_mdg and
/// bench_table5_n30, in that order, all simulated with \p SimSeed.
std::unique_ptr<PaperMatrix> buildMatrix(uint64_t SimSeed) {
  auto M = std::make_unique<PaperMatrix>();
  M->Programs = bench::paperPrograms();
  M->Systems = bench::paperSystems();
  const ProcessorModel Processors[] = {ProcessorModel::unlimited(),
                                       ProcessorModel::maxOutstanding(8),
                                       ProcessorModel::maxLength(8)};
  auto Sim = [SimSeed](const ProcessorModel &P) {
    SimulationConfig S = bench::paperSimulation(P);
    S.Seed = SimSeed;
    return S;
  };
  auto Add = [&](std::string Label, const Function &F,
                 const MemorySystem &Memory, double OptLat,
                 const ProcessorModel &P) {
    M->Cells.push_back({std::move(Label), &F, &Memory, OptLat,
                        SchedulerPolicy::Balanced,
                        PipelineConfig::paperDefault(), Sim(P)});
  };

  const Function *Mdg = nullptr;
  for (const auto &[B, F] : M->Programs)
    if (B == Benchmark::MDG)
      Mdg = &F;
  for (const bench::SystemRow &Row : M->Systems)
    for (double OptLat : Row.OptimisticLatencies)
      for (const auto &[B, F] : M->Programs)
        Add("T2/" + Row.Memory->name() + "/" + benchmarkName(B), F,
            *Row.Memory, OptLat, Processors[0]);
  for (const bench::SystemRow &Row : M->Systems)
    for (double OptLat : Row.OptimisticLatencies)
      for (const ProcessorModel &P : Processors)
        Add("T3/" + Row.Memory->name() + "/" + P.name(), *Mdg, *Row.Memory,
            OptLat, P);
  for (const auto &[B, F] : M->Programs)
    for (const ProcessorModel &P : Processors)
      Add("T5/" + benchmarkName(B) + "/" + P.name(), F, M->N30, 30, P);
  return M;
}

/// What one cell produced, to compare later repetitions and the replay
/// against the first repetition.
struct CellRef {
  double TradMean = 0.0, CandMean = 0.0, Improvement = 0.0;
  unsigned TradStatic = 0, CandStatic = 0;
  uint64_t TradPrinted = 0, CandPrinted = 0; ///< Traced run only.

  static CellRef of(const SchedulerComparison &C, bool WithPrinted) {
    CellRef R;
    R.TradMean = C.TraditionalSim.MeanRuntime;
    R.CandMean = C.CandidateSim.MeanRuntime;
    R.Improvement = C.Improvement.MeanPercent;
    R.TradStatic = C.TraditionalCompiled.StaticInstructions;
    R.CandStatic = C.CandidateCompiled.StaticInstructions;
    if (WithPrinted) {
      R.TradPrinted = fnv1a(printFunction(C.TraditionalCompiled.Compiled));
      R.CandPrinted = fnv1a(printFunction(C.CandidateCompiled.Compiled));
    }
    return R;
  }
  bool operator==(const CellRef &O) const {
    return TradMean == O.TradMean && CandMean == O.CandMean &&
           Improvement == O.Improvement && TradStatic == O.TradStatic &&
           CandStatic == O.CandStatic && TradPrinted == O.TradPrinted &&
           CandPrinted == O.CandPrinted;
  }
};

/// Checks the first repetition with the interpreter oracle (each distinct
/// compiled function once) and records the per-cell references plus the
/// code-quality figures.
std::vector<CellRef> checkFirstRepetition(const PaperMatrix &M,
                                          const EngineResult &Run,
                                          bool WithPrinted, RunResult &R) {
  std::vector<CellRef> Refs(M.Cells.size());
  std::set<std::pair<const Function *, double>> Checked; // OptLat -1 = cand.
  double Compiled = 0.0, Input = 0.0, Spills = 0.0, Cycles = 0.0;
  for (size_t I = 0; I != M.Cells.size(); ++I) {
    const ExperimentCell &Cell = M.Cells[I];
    const CellOutcome &Out = Run.Cells[I];
    if (!Out.ok()) {
      R.fail(Cell.Label + ": " + Out.firstError());
      continue;
    }
    const SchedulerComparison &C = *Out.Comparison;
    Refs[I] = CellRef::of(C, WithPrinted);
    for (const auto &[F, Key] :
         {std::pair{&C.TraditionalCompiled, Cell.OptimisticLatency},
          std::pair{&C.CandidateCompiled, -1.0}}) {
      Compiled += F->StaticInstructions;
      Spills += F->StaticSpills;
      Input += Cell.Program->totalInstructions();
      if (!Checked.insert({Cell.Program, Key}).second)
        continue;
      std::string Bad = checkMemoryImages(*Cell.Program, F->Compiled);
      if (!Bad.empty())
        R.fail(Cell.Label + ": " + Bad);
    }
    Cycles += C.TraditionalSim.MeanRuntime + C.CandidateSim.MeanRuntime;
  }
  R.CodeGrowth = Compiled / Input;
  R.Info.push_back({"sim_cycles", Cycles, "cycles"});
  R.Info.push_back({"spill_pct", 100.0 * Spills / Compiled, "%"});
  return Refs;
}

/// One cell replayed layer by layer (ExperimentEngine::runCell with
/// runComparisonWith); returns the comparison or what failed.
ErrorOr<SchedulerComparison> replayCell(const ExperimentCell &Cell,
                                        ReplayCache &Cache,
                                        ReplayCounters &Counters) {
  Scope Op = opScope(Cell.Program->totalInstructions());
  // The engine records each cell's compile and simulation metrics into a
  // private registry.
  MetricRegistry CellReg(2);
  SimulationConfig Sim = Cell.Sim;
  Sim.Obs.Metrics = &CellReg;
  PipelineConfig Base = Cell.Base;
  Status ConfigStatus = Base.validate();
  if (!ConfigStatus.ok())
    return ConfigStatus.diagnostics();

  SchedulerComparison C;
  PipelineConfig TradConfig = Base;
  TradConfig.Policy = SchedulerPolicy::Traditional;
  TradConfig.OptimisticLatency = Cell.OptimisticLatency;
  ErrorOr<CompiledFunction> Trad = replayCachedCompile(
      Cache, *Cell.Program, TradConfig, Counters, nullptr, &CellReg);
  if (!Trad)
    return Trad.takeErrors();
  C.TraditionalCompiled = std::move(*Trad);
  PipelineConfig CandConfig = Base;
  CandConfig.Policy = Cell.Candidate;
  ErrorOr<CompiledFunction> Cand = replayCachedCompile(
      Cache, *Cell.Program, CandConfig, Counters, nullptr, &CellReg);
  if (!Cand)
    return Cand.takeErrors();
  C.CandidateCompiled = std::move(*Cand);

  ErrorOr<ProgramSimResult> TradSim =
      replaySimulation(C.TraditionalCompiled, *Cell.Memory, Sim);
  if (!TradSim)
    return TradSim.takeErrors();
  C.TraditionalSim = std::move(*TradSim);
  ErrorOr<ProgramSimResult> CandSim =
      replaySimulation(C.CandidateCompiled, *Cell.Memory, Sim);
  if (!CandSim)
    return CandSim.takeErrors();
  C.CandidateSim = std::move(*CandSim);
  {
    Scope S(Call::StatsBootstrap);
    C.Improvement = pairedImprovement(C.TraditionalSim.BootstrapRuntimes,
                                      C.CandidateSim.BootstrapRuntimes);
  }
  (void)CellReg.snapshot();
  return C;
}

} // namespace

RunResult perfbench::runPaperTables(const Options &Opts) {
  RunResult R;
  const uint64_t SimSeed = mixSeed(Opts.Seed, 2);
  auto SetUp = [&] {
    const auto T0 = Clock::now();
    std::unique_ptr<PaperMatrix> Fresh = buildMatrix(SimSeed);
    R.SetupS.push_back(secondsBetween(T0, Clock::now()));
    return Fresh;
  };
  std::unique_ptr<PaperMatrix> M = SetUp();
  for (unsigned I = 1; I != SetupRepeats; ++I)
    (void)SetUp();
  const size_t NumCells = M->Cells.size();
  std::string Inputs;
  for (const auto &[B, F] : M->Programs)
    Inputs += printFunction(F);
  for (const ExperimentCell &Cell : M->Cells)
    Inputs += Cell.Label + ' ' + std::to_string(Cell.OptimisticLatency) + ' ' +
              Cell.Sim.Processor.name() + ' ' +
              std::to_string(Cell.Sim.NumRuns) + ' ' +
              std::to_string(Cell.Sim.NumResamples) + ' ' +
              std::to_string(Cell.Sim.Seed) + '\n';
  R.InputDigest = fnv1a(Inputs);

  // One repetition: the whole matrix on a fresh engine, every cell checked
  // against the first repetition, which the oracle checks. Returns its
  // seconds and appends each cell's wall time to CellMs.
  std::vector<CellRef> Refs;
  double CellWallMs = 0.0, WorkerWallMs = 0.0;
  auto Repetition = [&](std::vector<double> &CellMs) {
    const auto T0 = Clock::now();
    EngineResult Run;
    {
      ExperimentEngine Engine(EngineWorkers);
      Run = Engine.run(M->Cells);
    }
    const double RepS = secondsBetween(T0, Clock::now());
    R.Attempted += NumCells;
    CellWallMs += Run.Counters.CellWallMillis;
    WorkerWallMs += Run.Counters.Workers * Run.Counters.WallMillis;
    for (const CellOutcome &Cell : Run.Cells)
      CellMs.push_back(Cell.WallMillis);
    if (Refs.empty()) {
      Refs = checkFirstRepetition(*M, Run, Opts.Trace, R);
      return RepS;
    }
    for (size_t I = 0; I != NumCells; ++I)
      if (!Run.Cells[I].ok())
        R.fail(M->Cells[I].Label + ": " + Run.Cells[I].firstError());
      else if (!(CellRef::of(*Run.Cells[I].Comparison, Opts.Trace) == Refs[I]))
        R.fail(M->Cells[I].Label + ": differs from the first repetition");
    return RepS;
  };

  // Untraced: repetitions for half of a traced run, all of an untraced
  // one. A set-up follows each, so that setup_s samples the host across
  // the run as the repetitions do.
  const double Budget = Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds;
  const auto Start = Clock::now();
  do {
    R.RatePerS.push_back(static_cast<double>(NumCells) /
                         Repetition(R.LatencyMs));
    R.DoneS.resize(R.LatencyMs.size(), secondsBetween(Start, Clock::now()));
    (void)SetUp();
  } while (secondsBetween(Start, Clock::now()) < Budget);
  R.PeakRssMib = peakRssMib();
  R.Info.push_back({"cells_per_matrix", static_cast<double>(NumCells),
                    "cells"});
  if (!Opts.Trace)
    return R;

  // Traced: the same matrices replayed call by call, each repetition with
  // a fresh cache as the engine has; every cell must reproduce the
  // untraced engine's compiled code, cycles and improvement exactly. Each
  // replayed repetition follows an untraced one, the base for the tracing
  // overhead at the same moments of the host.
  constexpr size_t SpanCap = 1u << 20;
  startTracing(SpanCap / EngineWorkers);
  ReplayCounters Counters;
  ThreadPool Pool(EngineWorkers);
  const auto TraceStart = Clock::now();
  do {
    (void)Repetition(R.UntracedOpMs);
    ReplayCache Cache(CompileCacheConfig::unlimited(), nullptr);
    std::vector<std::string> Problems(NumCells);
    parallelForEach(Pool, NumCells, [&](size_t I) {
      ErrorOr<SchedulerComparison> C = replayCell(M->Cells[I], Cache, Counters);
      Cache.fillMisses();
      if (!C)
        Problems[I] = C.errors().front().formatted();
      else if (!(CellRef::of(*C, true) == Refs[I]))
        Problems[I] = "replay differs from the engine's result";
    });
    R.Attempted += NumCells;
    for (size_t I = 0; I != NumCells; ++I)
      if (!Problems[I].empty())
        R.fail(M->Cells[I].Label + ": " + Problems[I]);
  } while (secondsBetween(TraceStart, Clock::now()) < Opts.Seconds / 2 &&
           spansRecorded() < SpanCap);
  R.Layer.push_back({"pipeline.engine.busy_ratio", CellWallMs / WorkerWallMs,
                     "ratio"});
  Counters.report(R);
  return R;
}
