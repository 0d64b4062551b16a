//===- tests/EngineTest.cpp - Parallel experiment engine tests ------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// The engine's acceptance properties: parallel runs are bit-identical to
// serial runs, the compile cache returns exactly what a fresh compile
// would, faults stay isolated under concurrency, and the machine-readable
// summary carries the per-cell counters.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"
#include "pipeline/ExperimentEngine.h"
#include "tests/TestEngineHelpers.h"
#include "workload/LineReuse.h"

#include <cstdlib>

#include <gtest/gtest.h>

using namespace bsched;
using namespace bsched::fixtures;

namespace {

SimulationConfig smallSim() {
  SimulationConfig Sim;
  Sim.NumRuns = 3;
  Sim.NumResamples = 10;
  return Sim;
}

WorkloadOptions smallWorkload() {
  WorkloadOptions W;
  W.UnrollFactor = 1;
  return W;
}

bool isSimMetric(const std::string &Name) {
  return Name.rfind("bsched.sim.", 0) == 0;
}

/// The `bsched.sim.*` counters and histograms of \p Snapshot.
MetricSnapshot simMetrics(const MetricSnapshot &Snapshot) {
  MetricSnapshot Sim;
  for (const auto &[Name, Value] : Snapshot.Counters)
    if (isSimMetric(Name))
      Sim.Counters.emplace(Name, Value);
  for (const auto &[Name, Data] : Snapshot.Histograms)
    if (isSimMetric(Name))
      Sim.Histograms.emplace(Name, Data);
  return Sim;
}

/// Plants a branch to a nonexistent block in the entry block: a
/// structural corruption the parser can never produce but a buggy
/// producer could.
void corruptFunction(Function &F) {
  ASSERT_GE(F.numBlocks(), 1u);
  std::vector<Instruction> Instrs = F.block(0).instructions();
  Instrs.push_back(Instruction::makeJump(99));
  F.block(0).setInstructions(std::move(Instrs));
}

} // namespace

//===----------------------------------------------------------------------===
// Determinism: serial and parallel runs are bit-identical.
//===----------------------------------------------------------------------===

TEST(EngineTest, SerialMatchesParallel) {
  std::vector<Function> Programs = perfectClubPrograms(smallWorkload());
  NetworkSystem Memory(3, 5);
  std::vector<ExperimentCell> Cells =
      perfectClubCells(Programs, Memory, smallSim());

  EngineResult A = ExperimentEngine(1).run(Cells);
  EngineResult B = ExperimentEngine(8).run(Cells);

  EXPECT_EQ(A.Counters.Workers, 1u);
  EXPECT_EQ(B.Counters.Workers, 8u);
  EXPECT_TRUE(identicalEngineResults(A, B));

  // Every kernel of the healthy suite completes with a full comparison.
  ASSERT_EQ(A.Cells.size(), 8u);
  EXPECT_EQ(A.Counters.Failed, 0u);
  for (const CellOutcome &Cell : A.Cells) {
    ASSERT_TRUE(Cell.ok()) << Cell.Label << ": " << Cell.firstError();
    EXPECT_TRUE(Cell.firstError().empty());
    EXPECT_GT(Cell.Comparison->TraditionalSim.MeanRuntime, 0.0);
  }

  // Sanity for the helper itself: a different seed produces different
  // bootstrap runtimes, which identicalEngineResults must notice.
  SimulationConfig Reseeded = smallSim();
  Reseeded.Seed ^= 1;
  EngineResult C =
      ExperimentEngine(1).run(perfectClubCells(Programs, Memory, Reseeded));
  EXPECT_FALSE(identicalEngineResults(A, C));
}

TEST(EngineTest, SharedDrawsMatchStandaloneComparisons) {
  // A run draws each latency and bootstrap stream once, into a table its
  // cells share; every cell must still equal runComparison of it alone,
  // at any worker count. The matrix mixes two seeds, two memory systems
  // with equal parameters (separate streams), every processor model, a
  // kernel with known-latency loads (fewer draws per block than the same
  // block index elsewhere) and a cell that fails.
  Function Mdg = buildBenchmark(Benchmark::MDG, smallWorkload());
  Function Known = buildBenchmark(Benchmark::FLO52Q);
  unsigned Marked = 0;
  for (BasicBlock &BB : Known)
    Marked += markKnownLineHits(BB, 32, 2);
  ASSERT_GT(Marked, 0u);
  Function Idle = buildBenchmark(Benchmark::ADM, smallWorkload());
  for (BasicBlock &BB : Idle)
    BB.setFrequency(0.0);
  NetworkSystem NetA(3, 5), NetB(3, 5);
  CacheSystem L80(0.8, 2, 10);
  const MemorySystem *Memories[] = {&NetA, &NetB, &L80};

  std::vector<ExperimentCell> Cells;
  for (uint64_t Seed : {uint64_t(0xB5C0FFEE), uint64_t(0x5EED)})
    for (const MemorySystem *Memory : Memories)
      for (const ProcessorModel &P :
           {ProcessorModel::unlimited(), ProcessorModel::maxOutstanding(8),
            ProcessorModel::maxLength(8)})
        for (const Function *F : {&Mdg, &Known}) {
          SimulationConfig Sim = smallSim();
          Sim.Processor = P;
          Sim.Seed = Seed;
          Cells.push_back({F->name() + "/" + Memory->name() + "/" + P.name(),
                           F, Memory, 3.0, SchedulerPolicy::Balanced,
                           PipelineConfig::paperDefault(), Sim});
        }
  Cells.push_back({"idle", &Idle, &NetA, 3.0, SchedulerPolicy::Balanced,
                   PipelineConfig::paperDefault(), smallSim()});

  const EngineResult Standalone = standaloneResults(Cells);
  for (size_t I = 0; I + 1 != Cells.size(); ++I)
    ASSERT_TRUE(Standalone.Cells[I].ok())
        << Cells[I].Label << ": " << Standalone.Cells[I].firstError();
  ASSERT_FALSE(Standalone.Cells.back().ok());
  for (unsigned Workers : {1u, 2u, 4u})
    EXPECT_TRUE(identicalEngineResults(ExperimentEngine(Workers).run(Cells),
                                       Standalone))
        << Workers << " workers";
}

TEST(EngineTest, RepeatedParallelRunsAreIdentical) {
  std::vector<Function> Programs = perfectClubPrograms(smallWorkload());
  CacheSystem Memory(0.8, 2, 10);
  std::vector<ExperimentCell> Cells =
      perfectClubCells(Programs, Memory, smallSim());
  EngineResult A = ExperimentEngine(8).run(Cells);
  EngineResult B = ExperimentEngine(8).run(Cells);
  EXPECT_TRUE(identicalEngineResults(A, B));
}

//===----------------------------------------------------------------------===
// The compile cache.
//===----------------------------------------------------------------------===

TEST(EngineTest, CacheHitCorrectness) {
  // The same kernel against two memory systems: compilation depends only
  // on (function, config), so the second cell's compiles must all be
  // cache hits — and its results must equal an uncached engine's.
  Function F = buildBenchmark(Benchmark::TRACK, smallWorkload());
  NetworkSystem MemA(2, 2), MemB(5, 5);

  std::vector<ExperimentCell> Cells;
  Cells.push_back({"track/A", &F, &MemA, 2, SchedulerPolicy::Balanced,
                   PipelineConfig::paperDefault(), smallSim()});
  Cells.push_back({"track/B", &F, &MemB, 2, SchedulerPolicy::Balanced,
                   PipelineConfig::paperDefault(), smallSim()});

  ExperimentEngine Engine(1);
  EngineResult Run = Engine.run(Cells);
  ASSERT_TRUE(Run.Cells[0].ok());
  ASSERT_TRUE(Run.Cells[1].ok());

  // Serially, the first cell compiles traditional + balanced (2 misses)
  // and the second reuses both (2 hits).
  EXPECT_EQ(Run.Cells[0].CacheMisses, 2u);
  EXPECT_EQ(Run.Cells[0].CacheHits, 0u);
  EXPECT_EQ(Run.Cells[1].CacheMisses, 0u);
  EXPECT_EQ(Run.Cells[1].CacheHits, 2u);
  EXPECT_EQ(Engine.cache().size(), 2u);

  // The engine keys from each program's key half, printed once per run;
  // a direct compile keys from scratch. Both must name the same entries.
  PipelineConfig Trad = PipelineConfig::paperDefault();
  Trad.Policy = SchedulerPolicy::Traditional;
  Trad.OptimisticLatency = Cells[1].OptimisticLatency;
  PipelineConfig Cand = PipelineConfig::paperDefault();
  Cand.Policy = Cells[1].Candidate;
  for (const PipelineConfig &Config : {Trad, Cand}) {
    bool Hit = false;
    ASSERT_TRUE(Engine.cache().compile(F, Config, &Hit).has_value());
    EXPECT_TRUE(Hit) << policyName(Config.Policy);
  }
  EXPECT_EQ(Engine.cache().size(), 2u);

  // A fresh engine (empty cache) must produce the identical outcome for
  // the cached cell.
  ExperimentEngine Fresh(1);
  EngineResult Uncached = Fresh.run({Cells[1]});
  ASSERT_TRUE(Uncached.Cells[0].ok());
  EXPECT_EQ(Run.Cells[1].Comparison->CandidateSim.BootstrapRuntimes,
            Uncached.Cells[0].Comparison->CandidateSim.BootstrapRuntimes);
  EXPECT_EQ(Run.Cells[1].Comparison->Improvement.MeanPercent,
            Uncached.Cells[0].Comparison->Improvement.MeanPercent);
}

TEST(EngineTest, CacheDistinguishesConfigs) {
  Function F = buildBenchmark(Benchmark::TRACK, smallWorkload());
  ExperimentEngine Engine(1);

  bool Hit = true;
  ErrorOr<CompiledFunction> A =
      Engine.cache().compile(F, PipelineConfig::paperDefault(), &Hit);
  ASSERT_TRUE(A.has_value());
  EXPECT_FALSE(Hit);

  // Same content → hit, even through a distinct (equal) config object.
  ErrorOr<CompiledFunction> B =
      Engine.cache().compile(F, PipelineConfig::paperDefault(), &Hit);
  ASSERT_TRUE(B.has_value());
  EXPECT_TRUE(Hit);

  // Any knob change must miss.
  ErrorOr<CompiledFunction> C =
      Engine.cache().compile(F, PipelineConfig::unlimitedRegisters(), &Hit);
  ASSERT_TRUE(C.has_value());
  EXPECT_FALSE(Hit);
  ErrorOr<CompiledFunction> D =
      Engine.cache().compile(F, PipelineConfig::superscalar(2), &Hit);
  ASSERT_TRUE(D.has_value());
  EXPECT_FALSE(Hit);
  EXPECT_EQ(Engine.cache().size(), 3u);

  Engine.cache().clear();
  EXPECT_EQ(Engine.cache().size(), 0u);
}

//===----------------------------------------------------------------------===
// Fault isolation under concurrency.
//===----------------------------------------------------------------------===

TEST(EngineTest, FaultIsolationUnderConcurrency) {
  std::vector<Function> Programs = perfectClubPrograms(smallWorkload());
  FixedSystem Memory(10);
  std::vector<ExperimentCell> Cells =
      perfectClubCells(Programs, Memory, smallSim());
  ASSERT_EQ(Cells[4].Label, "MDG");
  corruptFunction(Programs[4]);

  EngineResult R = ExperimentEngine(8).run(Cells);

  // The run finished: seven healthy kernels carry full comparisons.
  EXPECT_EQ(R.Counters.Failed, 1u);
  for (const CellOutcome &Cell : R.Cells) {
    if (Cell.Label == "MDG")
      continue;
    ASSERT_TRUE(Cell.ok()) << Cell.Label << ": " << Cell.firstError();
    EXPECT_GT(Cell.Comparison->TraditionalSim.MeanRuntime, 0.0);
  }

  // The corrupted kernel is recorded with its real cause.
  const CellOutcome &Bad = R.Cells[4];
  EXPECT_FALSE(Bad.ok());
  bool SawVerifierError = false;
  for (const Diagnostic &D : Bad.Errors)
    SawVerifierError |= D.Code == DiagCode::VerifyBranchOutOfRange;
  EXPECT_TRUE(SawVerifierError);
  EXPECT_NE(Bad.firstError().find("error[BS"), std::string::npos);

  // And the degradation is deterministic: the serial run agrees exactly.
  EXPECT_TRUE(identicalEngineResults(R, ExperimentEngine(1).run(Cells)));
}

TEST(EngineTest, InvalidConfigFailsAtEntry) {
  Function F = buildBenchmark(Benchmark::TRACK, smallWorkload());
  FixedSystem Memory(10);

  PipelineConfig Bad = PipelineConfig::paperDefault();
  Bad.SchedOptions.IssueWidth = 0; // validate() rejects this.

  ExperimentEngine Engine(4);
  EngineResult Run = Engine.run(
      {{"bad", &F, &Memory, 2, SchedulerPolicy::Balanced, Bad, smallSim()},
       {"good", &F, &Memory, 2, SchedulerPolicy::Balanced,
        PipelineConfig::paperDefault(), smallSim()}});

  ASSERT_EQ(Run.Cells.size(), 2u);
  EXPECT_FALSE(Run.Cells[0].ok());
  ASSERT_FALSE(Run.Cells[0].Errors.empty());
  EXPECT_EQ(Run.Cells[0].Errors.front().Code, DiagCode::PipelineBadConfig);
  // The invalid cell never reached the compiler.
  EXPECT_EQ(Run.Cells[0].CacheMisses + Run.Cells[0].CacheHits, 0u);
  EXPECT_TRUE(Run.Cells[1].ok());
  EXPECT_EQ(Run.Counters.Failed, 1u);
}

TEST(EngineTest, BadSimulationConfigFailsEveryCellWithoutAborting) {
  std::vector<Function> Programs = perfectClubPrograms(smallWorkload());
  FixedSystem Memory(10);
  SimulationConfig Sim = smallSim();
  Sim.NumRuns = 0; // Invalid: validateSimulationConfig rejects it.
  EngineResult R =
      ExperimentEngine(1).run(perfectClubCells(Programs, Memory, Sim));
  EXPECT_EQ(R.Counters.Failed, 8u);
  for (const CellOutcome &Cell : R.Cells) {
    bool SawConfigError = false;
    for (const Diagnostic &D : Cell.Errors)
      SawConfigError |= D.Code == DiagCode::SimBadConfig;
    EXPECT_TRUE(SawConfigError) << Cell.Label;
  }
}

TEST(EngineTest, ProgramThatExecutesNothingFailsItsCellOnly) {
  // With every block at frequency 0 a program executes nothing: its
  // traditional runtime is 0 and a percentage improvement does not
  // exist. Its cell fails with BS501; the cell beside it succeeds.
  Function F = buildBenchmark(Benchmark::TRACK, smallWorkload());
  Function Idle = F;
  for (unsigned I = 0; I != Idle.numBlocks(); ++I)
    Idle.block(I).setFrequency(0.0);
  CacheSystem L80(0.8, 2, 10);

  EngineResult R = ExperimentEngine(1).run(
      {{"idle", &Idle, &L80, 2, SchedulerPolicy::Balanced,
        PipelineConfig::paperDefault(), smallSim()},
       {"track", &F, &L80, 2, SchedulerPolicy::Balanced,
        PipelineConfig::paperDefault(), smallSim()}});

  EXPECT_EQ(R.Counters.Failed, 1u);
  ASSERT_FALSE(R.Cells[0].ok());
  ASSERT_FALSE(R.Cells[0].Errors.empty());
  EXPECT_EQ(R.Cells[0].Errors.front().Code, DiagCode::PipelineInvalidInput);
  EXPECT_NE(R.Cells[0].firstError().find("'" + Idle.name() + "'"),
            std::string::npos);
  ASSERT_TRUE(R.Cells[1].ok()) << R.Cells[1].firstError();
  EXPECT_GT(R.Cells[1].Comparison->TraditionalSim.MeanRuntime, 0.0);
  EXPECT_TRUE(identicalEngineResults(R, R));
}

//===----------------------------------------------------------------------===
// Counters and the machine-readable summary.
//===----------------------------------------------------------------------===

TEST(EngineTest, SummaryJsonCarriesPerCellCounters) {
  Function F = buildBenchmark(Benchmark::TRACK, smallWorkload());
  NetworkSystem Memory(2, 2);
  ExperimentEngine Engine(2);
  EngineResult Run = Engine.run(
      {{"cell \"one\"", &F, &Memory, 2, SchedulerPolicy::Balanced,
        PipelineConfig::paperDefault(), smallSim()},
       {"cell-two", &F, &Memory, 2, SchedulerPolicy::Balanced,
        PipelineConfig::paperDefault(), smallSim()}});

  EXPECT_EQ(Run.Counters.Cells, 2u);
  EXPECT_EQ(Run.Counters.Workers, 2u);
  EXPECT_EQ(Run.Counters.Failed, 0u);
  // Four compilations total. The first run's hit count is informational
  // only: with both workers racing on identical cells, each may
  // first-compile the same key (anywhere from 0 to 2 hits), so only the
  // accounting identity is deterministic here.
  EXPECT_EQ(Run.Counters.CacheHits + Run.Counters.CacheMisses, 4u);
  EXPECT_GE(Run.Counters.WallMillis, 0.0);
  EXPECT_GE(Run.Counters.CellWallMillis, 0.0);

  // Rerunning on the now-warm cache is deterministic: every compile hits.
  EngineResult Again = Engine.run(
      {{"cell \"one\"", &F, &Memory, 2, SchedulerPolicy::Balanced,
        PipelineConfig::paperDefault(), smallSim()},
       {"cell-two", &F, &Memory, 2, SchedulerPolicy::Balanced,
        PipelineConfig::paperDefault(), smallSim()}});
  EXPECT_EQ(Again.Counters.CacheHits, 4u);
  EXPECT_EQ(Again.Counters.CacheMisses, 0u);

  std::string Json = Run.summaryJson();
  EXPECT_NE(Json.find("\"workers\":2"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"cells\":2"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"per_cell\":["), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"label\":\"cell \\\"one\\\"\""), std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"label\":\"cell-two\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"ok\":true"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"wall_ms\":"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"cache_hits\":"), std::string::npos) << Json;
}

//===----------------------------------------------------------------------===
// Observability: cells record into the engine's registry (DESIGN.md §3g).
// Simulation totals are a pure function of the cells; compile counters
// count the compiles that ran.
//===----------------------------------------------------------------------===

TEST(EngineTest, MetricSnapshotSerialMatchesParallel) {
  std::vector<Function> Programs = perfectClubPrograms(smallWorkload());
  NetworkSystem Memory(3, 5);
  std::vector<ExperimentCell> Cells =
      perfectClubCells(Programs, Memory, smallSim());

  MetricRegistry SerialReg;
  MetricRegistry PooledReg;
  EngineResult A = ExperimentEngine(1, ObsContext{&SerialReg, nullptr, {}})
                       .run(Cells);
  EngineResult B = ExperimentEngine(8, ObsContext{&PooledReg, nullptr, {}})
                       .run(Cells);

  // Recording never changes the measurements.
  EXPECT_TRUE(identicalEngineResults(A, B));
  EXPECT_TRUE(identicalEngineResults(A, ExperimentEngine(1).run(Cells)));

  // The sharded registry sums to the serial totals exactly.
  MetricSnapshot Serial = SerialReg.snapshot();
  MetricSnapshot Pooled = PooledReg.snapshot();
  EXPECT_EQ(simMetrics(Serial), simMetrics(Pooled));

  // No budgets, so each miss is one compile attempt.
  EXPECT_EQ(Serial.Counters.at("bsched.pipeline.kernels"),
            A.Counters.CacheMisses);
  EXPECT_EQ(Pooled.Counters.at("bsched.pipeline.kernels"),
            B.Counters.CacheMisses);
  EXPECT_GT(Serial.Counters.at("bsched.sched.passes"), 0u);

  // The simulator's stall accounting and latency distribution.
  EXPECT_GT(Serial.Counters.at("bsched.sim.block_runs"), 0u);
  EXPECT_GT(Serial.Counters.at("bsched.sim.cycles"), 0u);
  EXPECT_GT(Serial.Counters.at("bsched.sim.loads"), 0u);
  ASSERT_TRUE(Serial.Counters.count("bsched.sim.interlock_cycles"));
  EXPECT_GT(Serial.Histograms.at("bsched.sim.load_latency_cycles").Count,
            0u);
}

TEST(EngineTest, WarmRunAddsNoCompileCounters) {
  Function F = buildBenchmark(Benchmark::TRACK, smallWorkload());
  NetworkSystem Memory(2, 2);
  MetricRegistry Reg;
  ExperimentEngine Engine(1, ObsContext{&Reg, nullptr, {}});
  std::vector<ExperimentCell> Cells{
      {"track", &F, &Memory, 2, SchedulerPolicy::Balanced,
       PipelineConfig::paperDefault(), smallSim()}};

  EngineResult Cold = Engine.run(Cells);
  MetricSnapshot AfterCold = Reg.snapshot();
  EngineResult Warm = Engine.run(Cells);
  MetricSnapshot AfterWarm = Reg.snapshot();
  ASSERT_EQ(Warm.Counters.CacheMisses, 0u);
  ASSERT_EQ(Warm.Counters.CacheHits, 2u);
  EXPECT_TRUE(identicalEngineResults(Cold, Warm));

  // Every hit runs no compile, so the warm run adds nothing outside the
  // simulation and the engine's own accounting...
  for (const auto &[Name, Value] : AfterWarm.Counters) {
    if (!isSimMetric(Name) && Name.rfind("bsched.engine.", 0) != 0) {
      EXPECT_EQ(Value, AfterCold.Counters.at(Name)) << Name;
    }
  }
  for (const auto &[Name, Data] : AfterWarm.Histograms) {
    if (!isSimMetric(Name)) {
      EXPECT_EQ(Data, AfterCold.Histograms.at(Name)) << Name;
    }
  }

  // ...and exactly the cold run's simulation totals once more.
  MetricRegistry Twice;
  Twice.mergeSnapshot(simMetrics(AfterCold));
  Twice.mergeSnapshot(simMetrics(AfterCold));
  EXPECT_EQ(simMetrics(AfterWarm), Twice.snapshot());
  EXPECT_EQ(AfterWarm.Counters.at("bsched.pipeline.kernels"),
            Cold.Counters.CacheMisses);
  EXPECT_GT(AfterCold.Counters.at("bsched.dag.nodes"), 0u);
  EXPECT_GT(AfterCold.Counters.at("bsched.sim.cycles"), 0u);
}

TEST(EngineTest, EngineObsContextReceivesRunTotals) {
  Function F = buildBenchmark(Benchmark::TRACK, smallWorkload());
  NetworkSystem Memory(2, 2);
  MetricRegistry EngineReg;
  TraceRecorder Trace;
  ExperimentEngine Engine(1, ObsContext{&EngineReg, &Trace, {}});
  Engine.run({{"track", &F, &Memory, 2, SchedulerPolicy::Balanced,
               PipelineConfig::paperDefault(), smallSim()}});

  MetricSnapshot Snap = EngineReg.snapshot();
  EXPECT_EQ(Snap.Counters.at("bsched.engine.cells"), 1u);
  EXPECT_EQ(Snap.Counters.at("bsched.engine.failed_cells"), 0u);
  EXPECT_GT(Snap.Counters.at("bsched.sim.cycles"), 0u);

  // The trace covers both compilation phases and the simulation, per
  // kernel: compile -> dag/sched/certify/regalloc, then sim.
  std::vector<TraceEvent> Events = Trace.events();
  auto Has = [&](const char *Name) {
    for (const TraceEvent &E : Events)
      if (E.Name == Name)
        return true;
    return false;
  };
  EXPECT_TRUE(Has("compile"));
  EXPECT_TRUE(Has("dag"));
  EXPECT_TRUE(Has("sched"));
  EXPECT_TRUE(Has("regalloc"));
  EXPECT_TRUE(Has("certify"));
  EXPECT_TRUE(Has("sim"));
}

//===----------------------------------------------------------------------===
// The BSCHED_JOBS override.
//===----------------------------------------------------------------------===

TEST(EngineTest, BschedJobsEnvOverridesDefaultWorkerCount) {
  ASSERT_EQ(setenv("BSCHED_JOBS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::defaultWorkerCount(), 3u);
  ExperimentEngine Engine; // Jobs = 0 resolves through the environment.
  EXPECT_EQ(Engine.workerCount(), 3u);

  // Malformed or out-of-range values fall back to hardware concurrency.
  ASSERT_EQ(setenv("BSCHED_JOBS", "0", 1), 0);
  EXPECT_GE(ThreadPool::defaultWorkerCount(), 1u);
  ASSERT_EQ(setenv("BSCHED_JOBS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::defaultWorkerCount(), 1u);
  ASSERT_EQ(unsetenv("BSCHED_JOBS"), 0);
  EXPECT_GE(ThreadPool::defaultWorkerCount(), 1u);
}
