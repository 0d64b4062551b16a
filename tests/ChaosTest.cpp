//===- tests/ChaosTest.cpp - Chaos harness over the whole pipeline --------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// The chaos harness proper (DESIGN.md §3i): thousands of compiles under
// randomized deterministic budgets and armed fail points, checking the
// global robustness contract — no crash, no hang, every non-success a
// structured BS80x/BS810 diagnostic, every outcome reproducible, and
// serial and parallel engine runs bit-identical under keyed fault
// injection.
// The bulk 10k-iteration run rides on the fuzz harness (`fuzz_harness
// --mode chaos`, registered as the chaos_fuzz_smoke ctest entry); these
// tests pin the structured properties on workload-shaped inputs.
//
//===----------------------------------------------------------------------===//

#include "ir/IrPrinter.h"
#include "parser/Parser.h"
#include "support/FailPoint.h"
#include "support/Rng.h"
#include "tests/TestEngineHelpers.h"
#include "workload/PerfectClub.h"

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

/// Canonical rendering of one compile outcome: degradation level plus
/// printed program on success, joined diagnostics on failure. Two runs of
/// the same (kernel, budget, arming) must render identically.
std::string outcomeString(const ErrorOr<CompiledFunction> &Result) {
  if (Result.has_value())
    return "ok:" + std::string(degradationName(Result->Degradation)) + "\n" +
           printFunction(Result->Compiled);
  return "err:" + Result.errorText();
}

/// The structured-failure contract: a failed compile under chaos carries
/// at least one diagnostic, and the first is a budget overrun (BS80x) or
/// an injected fault (BS810) — never an unexplained internal error.
void expectStructured(const ErrorOr<CompiledFunction> &Result,
                      const std::string &Context) {
  ASSERT_FALSE(Result.errors().empty()) << Context;
  DiagCode Code = Result.errors().front().Code;
  EXPECT_TRUE(isBudgetDiagCode(Code) || Code == DiagCode::InjectedFault)
      << Context << ": " << Result.errorText();
}

/// Draws a randomized deterministic budget (never DeadlineMs: the chaos
/// contract compares runs bit-for-bit).
ResourceBudget randomBudget(Rng &R) {
  ResourceBudget Budget;
  Budget.Degrade = R.nextBernoulli(0.5);
  switch (R.nextBounded(4)) {
  case 0:
    break; // Unbudgeted: only fail points active.
  case 1:
    Budget.MaxTicks = 1 + R.nextBounded(4096);
    break;
  case 2:
    Budget.MaxSpillSlots = 1 + R.nextBounded(4);
    break;
  default:
    Budget.MaxInstructionsPerBlock = 1 + R.nextBounded(48);
    break;
  }
  return Budget;
}

/// Arms a random subset of the keyed pipeline sites. Stream-mode sites
/// (pool-task) stay disarmed: their evaluation order differs between
/// serial and pooled execution by design.
void armRandomKeyedSites(Rng &R) {
  const char *Sites[] = {failpoints::DagBuild,   failpoints::ClosureAlloc,
                         failpoints::Weighting,  failpoints::Scheduling,
                         failpoints::RegAlloc,   failpoints::Certify};
  FailPointRegistry &Reg = FailPointRegistry::instance();
  for (const char *Site : Sites)
    if (R.nextBernoulli(0.3))
      Reg.enable(Site, 0.05 + 0.25 * R.nextDouble(), R.nextUInt64());
}

} // namespace

// Workload kernels under randomized budgets and fault arming: every
// compile either succeeds (with a recorded degradation level) or fails
// structured, and repeating the identical configuration reproduces the
// outcome byte for byte.
TEST(ChaosTest, BudgetedFaultyCompilesAreStructuredAndReproducible) {
  FailPointRegistry &Reg = FailPointRegistry::instance();
  Reg.disableAll();

  std::vector<Function> Programs = perfectClubPrograms(smallWorkload());
  Rng R(0xC4A0'5E5Full);
  unsigned Degraded = 0;
  unsigned Failed = 0;
  const unsigned Rounds = 300;
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    const size_t Index = R.nextBounded(Programs.size());
    PipelineConfig Config;
    Config.Policy = R.nextBernoulli(0.5) ? SchedulerPolicy::Balanced
                                         : SchedulerPolicy::Traditional;
    Config.Budget = randomBudget(R);
    if (FailPointRegistry::compiledIn() && R.nextBernoulli(0.6))
      armRandomKeyedSites(R);

    std::string Context = benchmarkName(allBenchmarks()[Index]) +
                          " round " + std::to_string(Round);
    ErrorOr<CompiledFunction> A = runPipeline(Programs[Index], Config);
    if (!A.has_value()) {
      ++Failed;
      expectStructured(A, Context);
    } else if (A->Degradation != DegradationLevel::None) {
      ++Degraded;
    }

    ErrorOr<CompiledFunction> B = runPipeline(Programs[Index], Config);
    EXPECT_EQ(outcomeString(A), outcomeString(B)) << Context;
    Reg.disableAll();
  }
  // The draw distribution must actually exercise both degraded success
  // and structured failure, or the harness is vacuous.
  EXPECT_GT(Degraded, 0u);
  EXPECT_GT(Failed, 0u);
  EXPECT_LT(Failed, Rounds);
}

// The same chaos configuration run serially and across a worker pool
// produces bit-identical results: keyed fail points and deterministic
// budgets are pure functions of the kernel, not of execution order.
TEST(ChaosTest, SerialAndParallelSweepsAgreeUnderChaos) {
  if (!FailPointRegistry::compiledIn())
    GTEST_SKIP() << "fail points compiled out (BSCHED_NO_FAILPOINTS)";
  FailPointRegistry &Reg = FailPointRegistry::instance();
  Reg.disableAll();

  std::vector<Function> Programs = perfectClubPrograms(smallWorkload());
  NetworkSystem Memory(2, 5);
  Rng R(0xD15EA5Eull);
  for (unsigned Round = 0; Round != 6; ++Round) {
    Reg.disableAll();
    armRandomKeyedSites(R);
    Reg.enable(failpoints::EngineCell, 0.2, R.nextUInt64());

    PipelineConfig Base;
    Base.Budget = randomBudget(R);
    std::vector<ExperimentCell> Cells =
        perfectClubCells(Programs, Memory, smallSim(), Base);
    EngineResult A = ExperimentEngine(1).run(Cells);
    EngineResult B = ExperimentEngine(8).run(Cells);
    EXPECT_TRUE(identicalEngineResults(A, B)) << "round " << Round;

    // Failures, if any, are structured.
    for (const CellOutcome &Cell : A.Cells)
      if (!Cell.ok()) {
        ASSERT_FALSE(Cell.Errors.empty()) << Cell.Label;
        bool Structured = false;
        for (const Diagnostic &D : Cell.Errors)
          Structured |= isBudgetDiagCode(D.Code) ||
                        D.Code == DiagCode::InjectedFault;
        EXPECT_TRUE(Structured) << Cell.Label << ": " << Cell.firstError();
      }
  }
  Reg.disableAll();
}

// Environment-variable style arming through parseSpec drives the same
// machinery the BSCHED_FAILPOINTS variable uses; a compile under it
// fails with the injected-fault diagnostic and recovers once disarmed.
TEST(ChaosTest, SpecArmedFaultInjectsAndRecovers) {
  if (!FailPointRegistry::compiledIn())
    GTEST_SKIP() << "fail points compiled out (BSCHED_NO_FAILPOINTS)";
  FailPointRegistry &Reg = FailPointRegistry::instance();
  Reg.disableAll();
  ASSERT_TRUE(Reg.parseSpec("regalloc:1:42"));

  Function F = buildBenchmark(Benchmark::TRACK, smallWorkload());
  ErrorOr<CompiledFunction> Hurt = runPipeline(F, PipelineConfig());
  ASSERT_FALSE(Hurt.has_value());
  EXPECT_EQ(Hurt.errors().front().Code, DiagCode::InjectedFault);

  Reg.disableAll();
  ErrorOr<CompiledFunction> Healed = runPipeline(F, PipelineConfig());
  ASSERT_TRUE(Healed.has_value()) << Healed.errorText();
  EXPECT_EQ(Healed->Degradation, DegradationLevel::None);
}

// Governed parsing under chaos: a parse fail point surfaces as a
// structured diagnostic in the parse result, never a crash or a silent
// partial function list.
TEST(ChaosTest, GovernedParseUnderFaultIsStructured) {
  if (!FailPointRegistry::compiledIn())
    GTEST_SKIP() << "fail points compiled out (BSCHED_NO_FAILPOINTS)";
  FailPointRegistry::instance().disableAll();
  ScopedFailPoint Arm(failpoints::Parse, 1.0, 9);

  ResourceBudget Budget;
  Budget.MaxTicks = 1 << 20;
  ResourceGovernor Gov(Budget);
  ParseResult Result = parseIr("func @f {\nblock b freq 1 {\n  ret\n}\n}",
                               &Gov);
  EXPECT_FALSE(Result.ok());
  bool SawInjected = false;
  for (const Diagnostic &D : Result.Diags)
    SawInjected |= D.Code == DiagCode::InjectedFault;
  EXPECT_TRUE(SawInjected);
}
