//===- tests/GovernorTest.cpp - Resource governance + fail points ---------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// The resource-governance acceptance properties (DESIGN.md §3i): budgets
// admit or trip deterministically, overruns surface as structured BS80x
// diagnostics, the degradation ladder lands where it should and records
// the level, fail points inject faults reproducibly, and a throwing task
// can never deadlock the thread pool or silently lose an experiment cell.
//
//===----------------------------------------------------------------------===//

#include "dag/DagBuilder.h"
#include "ir/IrPrinter.h"
#include "obs/Metrics.h"
#include "parser/Parser.h"
#include "pipeline/ExperimentEngine.h"
#include "support/FailPoint.h"
#include "support/ResourceGovernor.h"
#include "support/ThreadPool.h"
#include "tests/TestEngineHelpers.h"
#include "workload/PerfectClub.h"

#include <atomic>
#include <stdexcept>

#include <gtest/gtest.h>

using namespace bsched;
using namespace bsched::fixtures;

namespace {

WorkloadOptions smallWorkload() {
  WorkloadOptions W;
  W.UnrollFactor = 1;
  return W;
}

SimulationConfig smallSim() {
  SimulationConfig Sim;
  Sim.NumRuns = 2;
  Sim.NumResamples = 4;
  return Sim;
}

/// Largest block of \p F, in instructions.
uint64_t maxBlockSize(const Function &F) {
  uint64_t Max = 0;
  for (const BasicBlock &BB : F)
    Max = std::max<uint64_t>(Max, BB.size());
  return Max;
}

DiagCode firstCode(const std::vector<Diagnostic> &Diags) {
  return Diags.empty() ? DiagCode::Unknown : Diags.front().Code;
}

/// One governed compile and the metrics it recorded.
struct LadderRun {
  ErrorOr<CompiledFunction> Result;
  MetricSnapshot Metrics;

  /// A counter's value, or 0 when the compile never registered it.
  uint64_t counter(const std::string &Name) const {
    auto It = Metrics.Counters.find(Name);
    return It == Metrics.Counters.end() ? 0 : It->second;
  }
};

/// Compiles \p B (default workload) under paperDefault() with \p Policy
/// and \p Budget, into a fresh registry.
LadderRun compileUnder(Benchmark B, SchedulerPolicy Policy,
                       const ResourceBudget &Budget) {
  MetricRegistry Reg;
  PipelineConfig Config = PipelineConfig::paperDefault();
  Config.Policy = Policy;
  Config.Budget = Budget;
  Config.Obs.Metrics = &Reg;
  ErrorOr<CompiledFunction> Result = runPipeline(buildBenchmark(B), Config);
  return {std::move(Result), Reg.snapshot()};
}

} // namespace

//===----------------------------------------------------------------------===
// ResourceGovernor units
//===----------------------------------------------------------------------===

TEST(GovernorTest, DefaultBudgetIsInactive) {
  ResourceBudget Budget;
  EXPECT_FALSE(Budget.active());
  ResourceGovernor Gov(Budget);
  EXPECT_FALSE(Gov.active());
  for (int I = 0; I != 1000; ++I)
    EXPECT_TRUE(Gov.poll());
  EXPECT_TRUE(Gov.admit(BudgetKind::DagEdges, ~0ull));
  EXPECT_FALSE(Gov.tripped());
}

TEST(GovernorTest, PollTripsOnTickBudgetAndStaysTripped) {
  ResourceBudget Budget;
  Budget.MaxTicks = 3;
  ResourceGovernor Gov(Budget);
  EXPECT_TRUE(Gov.poll());
  EXPECT_TRUE(Gov.poll());
  EXPECT_TRUE(Gov.poll());
  EXPECT_FALSE(Gov.poll());
  EXPECT_TRUE(Gov.tripped());
  EXPECT_EQ(Gov.trippedKind(), BudgetKind::Ticks);
  // Sticky: every further poll and admission refuses.
  EXPECT_FALSE(Gov.poll());
  EXPECT_FALSE(Gov.admit(BudgetKind::DagEdges, 0));
  EXPECT_EQ(Gov.diagnostic("function 'f'").Code,
            DiagCode::GovernorTickBudgetExceeded);
}

TEST(GovernorTest, AdmitTripsPerKindWithValueAndLimit) {
  struct Case {
    BudgetKind Kind;
    DiagCode Code;
  };
  const Case Cases[] = {
      {BudgetKind::BlockInstructions, DiagCode::GovernorBlockTooLarge},
      {BudgetKind::DagEdges, DiagCode::GovernorDagTooDense},
      {BudgetKind::SpillSlots, DiagCode::GovernorSpillBudgetExceeded},
  };
  for (const Case &C : Cases) {
    ResourceBudget Budget;
    switch (C.Kind) {
    case BudgetKind::BlockInstructions:
      Budget.MaxInstructionsPerBlock = 10;
      break;
    case BudgetKind::DagEdges:
      Budget.MaxDagEdges = 10;
      break;
    case BudgetKind::SpillSlots:
      Budget.MaxSpillSlots = 10;
      break;
    default:
      break;
    }
    ResourceGovernor Gov(Budget);
    EXPECT_TRUE(Gov.admit(C.Kind, 10)); // At the limit: admitted.
    EXPECT_FALSE(Gov.admit(C.Kind, 11));
    EXPECT_TRUE(Gov.tripped());
    EXPECT_EQ(Gov.trippedKind(), C.Kind);
    EXPECT_EQ(Gov.trippedValue(), 11u);
    EXPECT_EQ(Gov.trippedLimit(), 10u);
    EXPECT_EQ(Gov.diagnostic("block 'b'").Code, C.Code);
    EXPECT_TRUE(isBudgetDiagCode(C.Code));
  }
}

TEST(GovernorTest, BeginAttemptResetsTripForDegradedRetry) {
  ResourceBudget Budget;
  Budget.MaxTicks = 2;
  ResourceGovernor Gov(Budget);
  while (Gov.poll())
    ;
  EXPECT_TRUE(Gov.tripped());
  EXPECT_EQ(Gov.ticks(), 3u);
  Gov.beginAttempt();
  EXPECT_FALSE(Gov.tripped());
  EXPECT_EQ(Gov.ticks(), 0u);
  EXPECT_TRUE(Gov.poll());
}

TEST(GovernorTest, BudgetDiagCodeRange) {
  EXPECT_TRUE(isBudgetDiagCode(DiagCode::GovernorDeadlineExceeded));
  EXPECT_TRUE(isBudgetDiagCode(DiagCode::GovernorSpillBudgetExceeded));
  EXPECT_FALSE(isBudgetDiagCode(DiagCode::InjectedFault));
  EXPECT_FALSE(isBudgetDiagCode(DiagCode::PipelineCertificationFailed));
  EXPECT_EQ(budgetDiagCode(BudgetKind::Deadline),
            DiagCode::GovernorDeadlineExceeded);
  EXPECT_EQ(budgetKindName(BudgetKind::SpillSlots), "spill-slots");
}

//===----------------------------------------------------------------------===
// Fail-point registry units
//===----------------------------------------------------------------------===

TEST(FailPointTest, KeyedEvaluationIsAPureFunction) {
  FailPointRegistry &Reg = FailPointRegistry::instance();
  Reg.disableAll();
  ScopedFailPoint Arm("dag-build", 0.5, 42);

  // Same key, same verdict, every time; across keys roughly half fire.
  unsigned Hits = 0;
  for (uint64_t Key = 0; Key != 256; ++Key) {
    bool First = Reg.shouldFail("dag-build", Key);
    for (int Rep = 0; Rep != 3; ++Rep)
      EXPECT_EQ(Reg.shouldFail("dag-build", Key), First);
    Hits += First;
  }
  EXPECT_GT(Hits, 64u);
  EXPECT_LT(Hits, 192u);
  EXPECT_GT(Reg.evaluations(), 0u);
  EXPECT_GT(Reg.hits(), 0u);
}

TEST(FailPointTest, ProbabilityEndpoints) {
  FailPointRegistry &Reg = FailPointRegistry::instance();
  Reg.disableAll();
  {
    ScopedFailPoint Always("sim", 1.0, 7);
    for (uint64_t Key = 0; Key != 32; ++Key)
      EXPECT_TRUE(Reg.shouldFail("sim", Key));
  }
  {
    ScopedFailPoint Never("sim", 0.0, 7);
    for (uint64_t Key = 0; Key != 32; ++Key)
      EXPECT_FALSE(Reg.shouldFail("sim", Key));
  }
  // Unarmed sites never fire and the scoped arming restored that.
  EXPECT_FALSE(Reg.shouldFail("sim", 1));
  EXPECT_FALSE(anyFailPointsEnabled());
}

TEST(FailPointTest, ParseSpecArmsAndReportsErrors) {
  FailPointRegistry &Reg = FailPointRegistry::instance();
  Reg.disableAll();
  EXPECT_TRUE(Reg.parseSpec("regalloc:1:9,sim:0.25:13"));
  EXPECT_TRUE(anyFailPointsEnabled());
  EXPECT_TRUE(Reg.shouldFail("regalloc", 3));

  std::string Error;
  EXPECT_FALSE(Reg.parseSpec("regalloc:not-a-number:1", &Error));
  EXPECT_FALSE(Error.empty());
  Reg.disableAll();
  EXPECT_FALSE(anyFailPointsEnabled());

  // A spec that cannot be honoured as written arms nothing at all: an
  // unknown site, a probability outside [0, 1] (NaN and inf included), a
  // seed that is negative or past 2^64, or a bad entry after a good one.
  for (const char *Bad :
       {"regaloc:1:7", "regalloc:nan:7", "regalloc:inf:7", "regalloc:2:7",
        "regalloc:-1:7", "regalloc:1:-3", "regalloc:1:99999999999999999999",
        "regalloc:1:9,bogus"}) {
    Error.clear();
    EXPECT_FALSE(Reg.parseSpec(Bad, &Error)) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
    EXPECT_FALSE(anyFailPointsEnabled()) << Bad;
  }
  EXPECT_TRUE(Reg.parseSpec("engine-cell:0:0xffffffffffffffff"));
  Reg.disableAll();
}

TEST(FailPointTest, DiagnosticIsStructuredBS810) {
  Diagnostic D = failPointDiagnostic(failpoints::RegAlloc);
  EXPECT_EQ(D.Code, DiagCode::InjectedFault);
  EXPECT_TRUE(D.isError());
  EXPECT_NE(D.Message.find("regalloc"), std::string::npos);
}

//===----------------------------------------------------------------------===
// ThreadPool hardening: throwing tasks are captured, never lost
//===----------------------------------------------------------------------===

TEST(ThreadPoolFaultTest, ThrowingTaskNeitherDeadlocksNorLosesWork) {
  ThreadPool Pool(4);
  std::atomic<unsigned> Completed{0};
  for (int I = 0; I != 16; ++I)
    Pool.run([&Completed, I] {
      if (I % 4 == 0)
        throw std::runtime_error("task " + std::to_string(I) + " died");
      Completed.fetch_add(1);
    });
  Pool.wait(); // Must return despite the throwing tasks.
  EXPECT_EQ(Completed.load(), 12u);
  EXPECT_EQ(Pool.faultCount(), 4u);
  std::vector<std::string> Faults = Pool.takeFaults();
  ASSERT_EQ(Faults.size(), 4u);
  for (const std::string &F : Faults)
    EXPECT_NE(F.find("died"), std::string::npos);
  EXPECT_EQ(Pool.faultCount(), 0u); // takeFaults drained them.
}

TEST(ThreadPoolFaultTest, InlinePoolCapturesThrowsToo) {
  ThreadPool Pool(1);
  Pool.run([] { throw std::runtime_error("inline death"); });
  Pool.wait();
  EXPECT_EQ(Pool.faultCount(), 1u);
}

TEST(ThreadPoolFaultTest, PoolTaskFailPointIsCaptured) {
  FailPointRegistry::instance().disableAll();
  ScopedFailPoint Arm(failpoints::PoolTask, 1.0, 3);
  ThreadPool Pool(2);
  std::atomic<unsigned> Ran{0};
  for (int I = 0; I != 4; ++I)
    Pool.run([&Ran] { Ran.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Ran.load(), 0u); // Every task faulted at entry.
  EXPECT_EQ(Pool.faultCount(), 4u);
}

TEST(ThreadPoolFaultTest, ParallelForEachSurvivesThrowingBody) {
  for (unsigned Workers : {1u, 4u}) {
    ThreadPool Pool(Workers);
    std::vector<std::atomic<char>> Done(32);
    parallelForEach(Pool, Done.size(), [&Done](size_t I) {
      if (I == 7)
        throw std::runtime_error("body 7 died");
      Done[I].store(1);
    });
    for (size_t I = 0; I != Done.size(); ++I)
      EXPECT_EQ(Done[I].load(), I == 7 ? 0 : 1) << "index " << I;
    EXPECT_EQ(Pool.faultCount(), 1u);
  }
}

//===----------------------------------------------------------------------===
// DAG governance: the edge budget bounds the finished DAG
//===----------------------------------------------------------------------===

TEST(DagGovernorTest, EdgeBudgetCountsTheLastInstructionsEdges) {
  // Every Perfect Club block trips one edge under its full edge count —
  // however few of those edges its last instruction adds — and builds at
  // exactly that count.
  for (Benchmark B : allBenchmarks()) {
    Function F = buildBenchmark(B);
    for (const BasicBlock &BB : F) {
      const uint64_t Edges = buildDag(BB).numEdges();
      ASSERT_GT(Edges, 1u) << BB.name(); // A limit of 0 means unlimited.
      for (uint64_t Limit : {Edges - 1, Edges}) {
        ResourceBudget Budget;
        Budget.MaxDagEdges = Limit;
        ResourceGovernor Gov(Budget);
        DagBuildOptions Options;
        Options.Governor = &Gov;
        buildDag(BB, Options);
        EXPECT_EQ(Gov.tripped(), Limit < Edges)
            << benchmarkName(B) << " block '" << BB.name() << "' limit "
            << Limit << " of " << Edges << " edges";
      }
    }
  }
}

//===----------------------------------------------------------------------===
// Pipeline governance: admission, structured failures, the ladder
//===----------------------------------------------------------------------===

TEST(PipelineGovernorTest, BlockBudgetIsAHardStructuredFailure) {
  Function F = buildBenchmark(Benchmark::TRACK, smallWorkload());
  PipelineConfig Config;
  Config.Budget.MaxInstructionsPerBlock = 4;
  Config.Budget.Degrade = true; // No ladder rung shrinks a block.
  ErrorOr<CompiledFunction> Result = runPipeline(F, Config);
  ASSERT_FALSE(Result.has_value());
  EXPECT_EQ(firstCode(Result.errors()), DiagCode::GovernorBlockTooLarge);
  EXPECT_NE(Result.errors().front().formatted().find("BS802"),
            std::string::npos);
}

TEST(PipelineGovernorTest, TickBudgetFailureIsDeterministic) {
  Function F = buildBenchmark(Benchmark::TRACK, smallWorkload());
  PipelineConfig Config;
  Config.Budget.MaxTicks = 20;
  Config.Budget.Degrade = false;
  ErrorOr<CompiledFunction> A = runPipeline(F, Config);
  ErrorOr<CompiledFunction> B = runPipeline(F, Config);
  ASSERT_FALSE(A.has_value());
  ASSERT_FALSE(B.has_value());
  EXPECT_EQ(firstCode(A.errors()), DiagCode::GovernorTickBudgetExceeded);
  EXPECT_EQ(A.errorText(), B.errorText());
}

TEST(PipelineGovernorTest, SpillBudgetTripsOnHighPressureKernel) {
  // QCD2 is the suite's highest register pressure; it must spill for the
  // budget to have anything to refuse.
  Function F = buildBenchmark(Benchmark::QCD2, WorkloadOptions{});
  ErrorOr<CompiledFunction> Free = runPipeline(F, PipelineConfig());
  ASSERT_TRUE(Free.has_value());
  ASSERT_GT(Free->StaticSpills, 0u)
      << "QCD2 no longer spills; pick another kernel for this test";

  PipelineConfig Config;
  Config.Budget.MaxSpillSlots = 1;
  Config.Budget.Degrade = false;
  ErrorOr<CompiledFunction> Result = runPipeline(F, Config);
  ASSERT_FALSE(Result.has_value());
  EXPECT_EQ(firstCode(Result.errors()),
            DiagCode::GovernorSpillBudgetExceeded);
}

// The ladder tries a rung only when it can change the resource that
// tripped (runPipeline). Compiles run on the default workload under
// paperDefault(); bsched.pipeline.kernels counts the attempts.

TEST(PipelineGovernorTest, DagEdgeOverrunCostsOneAttempt) {
  // The first-pass DAG does not depend on the policy, and certify-off
  // never touches a DAG: no rung can help, under either policy.
  ResourceBudget Budget;
  Budget.MaxDagEdges = 50;
  for (SchedulerPolicy Policy :
       {SchedulerPolicy::Balanced, SchedulerPolicy::Traditional}) {
    LadderRun Run = compileUnder(Benchmark::MDG, Policy, Budget);
    ASSERT_FALSE(Run.Result.has_value()) << policyName(Policy);
    EXPECT_EQ(firstCode(Run.Result.errors()), DiagCode::GovernorDagTooDense)
        << policyName(Policy);
    EXPECT_EQ(Run.counter("bsched.pipeline.kernels"), 1u)
        << policyName(Policy);
    EXPECT_EQ(Run.counter("bsched.governor.degraded_unionfind"), 0u);
    EXPECT_EQ(Run.counter("bsched.governor.degraded_certify_off"), 0u);
  }
}

TEST(PipelineGovernorTest, SpillOverrunTriesOnlyTheUnionFindRung) {
  // Union-find reschedules the first pass and so moves spill code;
  // certify-off cannot. MDG spills past one slot either way and fails
  // after two attempts; ARC2D fits once rescheduled.
  ResourceBudget Budget;
  Budget.MaxSpillSlots = 1;
  LadderRun Mdg =
      compileUnder(Benchmark::MDG, SchedulerPolicy::Balanced, Budget);
  ASSERT_FALSE(Mdg.Result.has_value());
  EXPECT_EQ(firstCode(Mdg.Result.errors()),
            DiagCode::GovernorSpillBudgetExceeded);

  LadderRun Arc2d =
      compileUnder(Benchmark::ARC2D, SchedulerPolicy::Balanced, Budget);
  ASSERT_TRUE(Arc2d.Result.has_value()) << Arc2d.Result.errorText();
  EXPECT_EQ(Arc2d.Result->Degradation, DegradationLevel::UnionFindChances);
  EXPECT_EQ(Mdg.counter("bsched.pipeline.kernels"), 2u);
  EXPECT_EQ(Mdg.counter("bsched.governor.degraded_unionfind"), 1u);
  EXPECT_EQ(Mdg.counter("bsched.governor.degraded_certify_off"), 0u);
  EXPECT_EQ(Arc2d.counter("bsched.pipeline.kernels"), 2u);
}

TEST(PipelineGovernorTest, ClosureBitLimitHasNoEffect) {
  // max_closure_bits is accepted and ignored: alone it leaves the budget
  // inactive, so the compile, its level and its cache key are the
  // unbudgeted ones.
  Function F = buildBenchmark(Benchmark::MDG);
  PipelineConfig Free = PipelineConfig::paperDefault();
  PipelineConfig Limited = Free;
  Limited.Budget.MaxClosureBits = 2000;
  EXPECT_FALSE(Limited.Budget.active());

  ErrorOr<CompiledFunction> Expected = runPipeline(F, Free);
  ErrorOr<CompiledFunction> Result = runPipeline(F, Limited);
  ASSERT_TRUE(Expected.has_value()) << Expected.errorText();
  ASSERT_TRUE(Result.has_value()) << Result.errorText();
  EXPECT_EQ(Result->Degradation, DegradationLevel::None);
  EXPECT_EQ(printFunction(Result->Compiled),
            printFunction(Expected->Compiled));
  EXPECT_EQ(experimentCacheKey(F, Limited), experimentCacheKey(F, Free));
}

TEST(PipelineGovernorTest, TickLadderLandsOnCertifyOff) {
  Function F = buildBenchmark(Benchmark::TRACK, smallWorkload());

  // Price one certify-on and one certify-off compile in ticks, then pick a
  // budget between the two: the first attempt must trip, the certify-off
  // rung must fit. (Traditional has no union-find rung, so the ladder goes
  // straight to certify-off.)
  auto MeasureTicks = [&](bool Certify) {
    MetricRegistry Reg;
    PipelineConfig Config;
    Config.Policy = SchedulerPolicy::Traditional;
    Config.Certify = Certify;
    Config.Budget.MaxTicks = ~0ull >> 1;
    Config.Obs.Metrics = &Reg;
    ErrorOr<CompiledFunction> Result = runPipeline(F, Config);
    EXPECT_TRUE(Result.has_value());
    return Reg.snapshot().Counters.at("bsched.governor.ticks");
  };
  uint64_t FullTicks = MeasureTicks(true);
  uint64_t OffTicks = MeasureTicks(false);
  ASSERT_GT(FullTicks, OffTicks + 1)
      << "certification no longer polls enough to price";

  MetricRegistry Reg;
  PipelineConfig Config;
  Config.Policy = SchedulerPolicy::Traditional;
  Config.Budget.MaxTicks = (FullTicks + OffTicks) / 2;
  Config.Obs.Metrics = &Reg;
  ErrorOr<CompiledFunction> Result = runPipeline(F, Config);
  ASSERT_TRUE(Result.has_value()) << Result.errorText();
  EXPECT_EQ(Result->Degradation, DegradationLevel::CertifyOff);

  MetricSnapshot Snap = Reg.snapshot();
  EXPECT_EQ(Snap.Counters.at("bsched.governor.governed_kernels"), 1u);
  EXPECT_EQ(Snap.Counters.at("bsched.governor.degraded_certify_off"), 1u);

  // Deterministic: the same budget lands on the same rung with the same
  // code, twice.
  ErrorOr<CompiledFunction> Again = runPipeline(F, Config);
  ASSERT_TRUE(Again.has_value());
  EXPECT_EQ(Again->Degradation, DegradationLevel::CertifyOff);
  EXPECT_EQ(printFunction(Result->Compiled), printFunction(Again->Compiled));
}

TEST(PipelineGovernorTest, BudgetFailureCountsInMetrics) {
  Function F = buildBenchmark(Benchmark::TRACK, smallWorkload());
  MetricRegistry Reg;
  PipelineConfig Config;
  Config.Budget.MaxInstructionsPerBlock = 1;
  Config.Obs.Metrics = &Reg;
  EXPECT_FALSE(runPipeline(F, Config).has_value());
  MetricSnapshot Snap = Reg.snapshot();
  EXPECT_EQ(Snap.Counters.at("bsched.governor.budget_failures"), 1u);
  EXPECT_EQ(Snap.Counters.at("bsched.governor.governed_kernels"), 1u);
}

//===----------------------------------------------------------------------===
// Governed parsing
//===----------------------------------------------------------------------===

TEST(ParserGovernorTest, OversizedBlockIsAStructuredParseFailure) {
  const char *Text = R"(func @big {
block body freq 1 {
  %i0 = li 1
  %i1 = li 2
  %i2 = addi %i0, 1
  %i3 = addi %i1, 2
  %i4 = add %i2, %i3
  ret
}
})";
  ResourceBudget Budget;
  Budget.MaxInstructionsPerBlock = 3;
  ResourceGovernor Gov(Budget);
  ParseResult Governed = parseIr(Text, &Gov);
  EXPECT_FALSE(Governed.ok());
  EXPECT_TRUE(Gov.tripped());
  bool SawBudgetCode = false;
  for (const Diagnostic &D : Governed.Diags)
    SawBudgetCode |= D.Code == DiagCode::GovernorBlockTooLarge;
  EXPECT_TRUE(SawBudgetCode);

  // The same text parses clean un-governed and under a roomy budget.
  EXPECT_TRUE(parseIr(Text).ok());
  ResourceGovernor Roomy(ResourceBudget{.MaxInstructionsPerBlock = 64});
  EXPECT_TRUE(parseIr(Text, &Roomy).ok());
}

//===----------------------------------------------------------------------===
// Engine integration: cache keys, cell faults, lost-cell backstop
//===----------------------------------------------------------------------===

TEST(EngineGovernorTest, CacheKeyIncludesBudget) {
  Function F = buildBenchmark(Benchmark::TRACK, smallWorkload());
  PipelineConfig A;
  PipelineConfig B;
  B.Budget.MaxTicks = 1000;
  PipelineConfig C;
  C.Budget.MaxTicks = 1000;
  C.Budget.Degrade = false;
  EXPECT_NE(experimentCacheKey(F, A), experimentCacheKey(F, B));
  EXPECT_NE(experimentCacheKey(F, B), experimentCacheKey(F, C));
  EXPECT_EQ(experimentCacheKey(F, B), experimentCacheKey(F, B));
}

TEST(EngineGovernorTest, EngineCellFaultIsIsolatedAndDeterministic) {
  FailPointRegistry::instance().disableAll();
  ScopedFailPoint Arm(failpoints::EngineCell, 0.5, 11);

  std::vector<Function> Programs = perfectClubPrograms(smallWorkload());
  NetworkSystem Memory(2, 5);
  std::vector<ExperimentCell> Cells =
      perfectClubCells(Programs, Memory, smallSim());
  EngineResult A = ExperimentEngine(1).run(Cells);
  EngineResult B = ExperimentEngine(8).run(Cells);

  // The fault is keyed by cell label: the same cells fault serially and in
  // parallel, and the rest still complete.
  EXPECT_TRUE(identicalEngineResults(A, B));
  EXPECT_GT(A.Counters.Failed, 0u) << "seed 11 no longer faults any label";
  EXPECT_LT(A.Counters.Failed, A.Counters.Cells)
      << "seed 11 faults every label";
  for (const CellOutcome &Cell : A.Cells)
    if (!Cell.ok()) {
      EXPECT_EQ(firstCode(Cell.Errors), DiagCode::InjectedFault);
    }
}

TEST(EngineGovernorTest, PoolLevelFaultNeverLosesACellSilently) {
  FailPointRegistry::instance().disableAll();
  ScopedFailPoint Arm(failpoints::PoolTask, 1.0, 5);

  // Every pool task dies at entry, so every cell's slot would stay
  // default-constructed without the engine's backstop: each must come back
  // labelled with a structured BS811 diagnostic.
  std::vector<Function> Programs = perfectClubPrograms(smallWorkload());
  NetworkSystem Memory(2, 5);
  EngineResult Result = ExperimentEngine(4).run(
      perfectClubCells(Programs, Memory, smallSim()));
  EXPECT_EQ(Result.Counters.Failed, Result.Cells.size());
  for (const CellOutcome &Cell : Result.Cells) {
    EXPECT_FALSE(Cell.Label.empty());
    EXPECT_EQ(firstCode(Cell.Errors), DiagCode::EngineCellFault);
  }
}

//===----------------------------------------------------------------------===
// Sweep degradation: mixed budget overruns + injected faults
//===----------------------------------------------------------------------===

TEST(SweepGovernorTest, MixedBudgetAndFaultSweepIsDeterministic) {
  FailPointRegistry::instance().disableAll();

  std::vector<Function> Programs = perfectClubPrograms(smallWorkload());

  // Split the suite by block size: kernels whose largest block exceeds the
  // median budget must fail BS802 at admission; the rest run under an
  // injected regalloc fault and either succeed or fail BS810.
  std::vector<uint64_t> Sizes;
  for (const Function &F : Programs)
    Sizes.push_back(maxBlockSize(F));
  std::vector<uint64_t> Sorted = Sizes;
  std::sort(Sorted.begin(), Sorted.end());
  uint64_t Limit = Sorted[Sorted.size() / 2];
  unsigned ExpectOverBudget = 0;
  for (uint64_t S : Sizes)
    ExpectOverBudget += S > Limit;
  ASSERT_GT(ExpectOverBudget, 0u);
  ASSERT_LT(ExpectOverBudget, Programs.size());

  ScopedFailPoint Arm(failpoints::RegAlloc, 0.4, 17);
  PipelineConfig Base;
  Base.Budget.MaxInstructionsPerBlock = Limit;
  CacheSystem Memory(0.8, 2, 10);
  std::vector<ExperimentCell> Cells =
      perfectClubCells(Programs, Memory, smallSim(), Base);
  EngineResult A = ExperimentEngine(1).run(Cells);
  EngineResult B = ExperimentEngine(8).run(Cells);
  EXPECT_TRUE(identicalEngineResults(A, B));

  unsigned OverBudget = 0;
  for (size_t I = 0; I != A.Cells.size(); ++I) {
    const CellOutcome &Cell = A.Cells[I];
    if (Sizes[I] > Limit) {
      // Admission failure, before any fail point can fire.
      ASSERT_FALSE(Cell.ok()) << Cell.Label;
      EXPECT_EQ(firstCode(Cell.Errors), DiagCode::GovernorBlockTooLarge)
          << Cell.Label;
      ++OverBudget;
    } else if (!Cell.ok()) {
      EXPECT_EQ(firstCode(Cell.Errors), DiagCode::InjectedFault) << Cell.Label;
    }
  }
  EXPECT_EQ(OverBudget, ExpectOverBudget);
  EXPECT_GE(A.Counters.Failed, OverBudget);
}
