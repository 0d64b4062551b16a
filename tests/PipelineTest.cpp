//===- tests/PipelineTest.cpp - Integration tests for the pipeline --------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// These are the end-to-end checks that the reproduction actually shows the
// paper's headline effects: balanced scheduling beats the traditional
// scheduler under latency uncertainty, gains grow with variance, and the
// whole compile pipeline preserves program semantics.
//
//===----------------------------------------------------------------------===//

#include "dag/DagBuilder.h"
#include "ir/Interpreter.h"
#include "ir/IrPrinter.h"
#include "ir/IrVerifier.h"
#include "obs/Metrics.h"
#include "parser/Parser.h"
#include "pipeline/Experiment.h"
#include "pipeline/Pipeline.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "workload/HugeBlocks.h"
#include "workload/PerfectClub.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

using namespace bsched;

namespace {

SimulationConfig quickSim(ProcessorModel P = ProcessorModel::unlimited()) {
  SimulationConfig C;
  C.Processor = P;
  C.NumRuns = 12; // Enough signal for tests; benches use the paper's 30.
  C.NumResamples = 60;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===
// runPipeline mechanics
//===----------------------------------------------------------------------===

TEST(PipelineTest, ProducesPhysicalCode) {
  Function F = buildBenchmark(Benchmark::FLO52Q);
  CompiledFunction C = runPipeline(F, {}).value();
  EXPECT_TRUE(verifyClean(verifyFunction(C.Compiled)));
  for (const BasicBlock &BB : C.Compiled)
    for (const Instruction &I : BB) {
      if (I.hasDest()) {
        EXPECT_TRUE(I.dest().isPhysical());
      }
      for (Reg Src : I.sources())
        EXPECT_TRUE(Src.isPhysical());
    }
}

TEST(PipelineTest, CountsAreConsistent) {
  Function F = buildBenchmark(Benchmark::QCD2);
  CompiledFunction C = runPipeline(F, {}).value();
  EXPECT_EQ(C.SpillPerBlock.size(), F.numBlocks());
  unsigned SumSpills = 0;
  for (unsigned S : C.SpillPerBlock)
    SumSpills += S;
  EXPECT_EQ(SumSpills, C.StaticSpills);
  EXPECT_EQ(C.StaticInstructions, C.Compiled.totalInstructions());
  EXPECT_GE(C.StaticInstructions, F.totalInstructions());
  EXPECT_GT(C.DynamicInstructions, 0.0);
}

TEST(PipelineTest, NoSchedulingPolicySkipsReordering) {
  Function F = buildBenchmark(Benchmark::TRACK);
  PipelineConfig Config;
  Config.Policy = SchedulerPolicy::NoScheduling;
  Config.RunRegAlloc = false;
  CompiledFunction C = runPipeline(F, Config).value();
  // Identical block contents (no RA, no reordering).
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    ASSERT_EQ(C.Compiled.block(B).size(), F.block(B).size());
    for (unsigned I = 0; I != F.block(B).size(); ++I)
      EXPECT_EQ(C.Compiled.block(B)[I].str(), F.block(B)[I].str());
  }
}

TEST(PipelineTest, QcdSpillsMoreThanFlo) {
  // The paper's Table 4 ordering: QCD2 is the most spill-heavy program,
  // FLO52Q the least.
  PipelineConfig Config;
  Config.Policy = SchedulerPolicy::Balanced;
  double Qcd = runPipeline(buildBenchmark(Benchmark::QCD2), Config)
                   .value()
                   .spillPercent();
  double Flo = runPipeline(buildBenchmark(Benchmark::FLO52Q), Config)
                   .value()
                   .spillPercent();
  EXPECT_GT(Qcd, Flo);
  EXPECT_GT(Qcd, 5.0);
}

//===----------------------------------------------------------------------===
// Pipeline preserves semantics end to end
//===----------------------------------------------------------------------===

class PipelineSemanticsTest : public ::testing::TestWithParam<Benchmark> {};

TEST_P(PipelineSemanticsTest, CompiledCodeComputesSameMemoryImage) {
  Function F = buildBenchmark(GetParam());
  for (SchedulerPolicy Policy :
       {SchedulerPolicy::Traditional, SchedulerPolicy::Balanced}) {
    PipelineConfig Config;
    Config.Policy = Policy;
    CompiledFunction C = runPipeline(F, Config).value();

    AliasClassId Spill =
        C.Compiled.getOrCreateAliasClass(SpillAliasClassName);
    for (unsigned B = 0; B != F.numBlocks(); ++B) {
      Interpreter Before, After;
      Before.run(F.block(B));
      After.run(C.Compiled.block(B));
      EXPECT_EQ(Before.memoryImage(), After.memoryImageExcluding(Spill))
          << benchmarkName(GetParam()) << " block " << B << " policy "
          << policyName(Policy);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, PipelineSemanticsTest,
                         ::testing::ValuesIn(allBenchmarks()),
                         [](const auto &Info) {
                           return benchmarkName(Info.param);
                         });

namespace {

/// \p F with every virtual register id raised by \p Shift.
Function shiftVirtualIds(const Function &F, unsigned Shift) {
  auto Shifted = [Shift](Reg R) {
    return R.isVirtual() ? Reg::makeVirtual(R.regClass(), R.id() + Shift) : R;
  };
  Function Out = F;
  for (BasicBlock &BB : Out)
    for (Instruction &I : BB) {
      for (unsigned S = 0; S != I.sources().size(); ++S)
        I.setSource(S, Shifted(I.source(S)));
      if (I.hasDest())
        I.setDest(Shifted(I.dest()));
    }
  return Out;
}

/// The highest virtual register id \p F uses.
unsigned maxVirtualId(const Function &F) {
  unsigned Max = 0;
  for (const BasicBlock &BB : F)
    for (const Instruction &I : BB) {
      for (Reg Src : I.sources())
        Max = std::max(Max, Src.id());
      if (I.hasDest())
        Max = std::max(Max, I.dest().id());
    }
  return Max;
}

/// Every edge of \p Dag as (from, to, kind), successor lists then
/// predecessor lists, each in its stored order.
std::vector<std::tuple<unsigned, unsigned, DepKind>>
edgeLists(const DepDag &Dag) {
  std::vector<std::tuple<unsigned, unsigned, DepKind>> Edges;
  for (unsigned I = 0; I != Dag.size(); ++I)
    for (const DepEdge &E : Dag.succs(I))
      Edges.emplace_back(I, E.Other, E.Kind);
  for (unsigned I = 0; I != Dag.size(); ++I)
    for (const DepEdge &E : Dag.preds(I))
      Edges.emplace_back(E.Other, I, E.Kind);
  return Edges;
}

} // namespace

// Virtual ids of 1024 and up miss the register tables' flat range
// (ir/RegTable.h), and ids near Reg::MaxId sit at the encoding's edge. The
// DAGs must not change, and a certified compile must still compute what
// the program computes. (The allocation itself may differ: eviction
// breaks ties in a hash set's order of virtual register numbers.)
TEST(PipelineTest, VirtualIdsPastTheFlatTableCompileAlike) {
  for (Benchmark B : allBenchmarks()) {
    const Function F = buildBenchmark(B);
    for (unsigned Shift : {1024u, Reg::MaxId - maxVirtualId(F)}) {
      const Function Shifted = shiftVirtualIds(F, Shift);
      const std::string What = std::string(benchmarkName(B)) + " shifted by " +
                               std::to_string(Shift);
      for (bool AliasAnalysis : {true, false}) {
        DagBuildOptions Options;
        Options.AliasAnalysis = AliasAnalysis;
        for (unsigned Block = 0; Block != F.numBlocks(); ++Block)
          EXPECT_EQ(edgeLists(buildDag(F.block(Block), Options)),
                    edgeLists(buildDag(Shifted.block(Block), Options)))
              << What << " block " << Block << " alias analysis "
              << AliasAnalysis;
      }

      for (SchedulerPolicy Policy :
           {SchedulerPolicy::Traditional, SchedulerPolicy::Balanced}) {
        PipelineConfig Config;
        Config.Policy = Policy;
        Config.Certify = true;
        ErrorOr<CompiledFunction> C = runPipeline(Shifted, Config);
        ASSERT_TRUE(C) << What << ": " << C.errors().front().Message;
        AliasClassId Spill =
            C->Compiled.getOrCreateAliasClass(SpillAliasClassName);
        for (unsigned Block = 0; Block != F.numBlocks(); ++Block) {
          Interpreter Before, After;
          Before.run(F.block(Block));
          After.run(C->Compiled.block(Block));
          EXPECT_EQ(Before.memoryImage(), After.memoryImageExcluding(Spill))
              << What << " block " << Block << " policy "
              << policyName(Policy);
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===
// The headline result
//===----------------------------------------------------------------------===

TEST(ExperimentTest, SimulateProgramAccounting) {
  Function F = buildBenchmark(Benchmark::MDG);
  CompiledFunction C = runPipeline(F, {}).value();
  CacheSystem Mem(0.8, 2, 10);
  ProgramSimResult Sim = runSimulation(C, Mem, quickSim()).value();
  EXPECT_EQ(Sim.BootstrapRuntimes.size(), 60u);
  EXPECT_GT(Sim.MeanRuntime, Sim.DynamicInstructions); // Some interlocks.
  EXPECT_GT(Sim.interlockPercent(), 0.0);
  EXPECT_LT(Sim.interlockPercent(), 100.0);
  EXPECT_NEAR(Sim.DynamicInstructions, C.DynamicInstructions, 1e-6);
}

TEST(ExperimentTest, SimulationIsDeterministic) {
  Function F = buildBenchmark(Benchmark::TRACK);
  CompiledFunction C = runPipeline(F, {}).value();
  NetworkSystem Mem(3, 2);
  ProgramSimResult A = runSimulation(C, Mem, quickSim()).value();
  ProgramSimResult B = runSimulation(C, Mem, quickSim()).value();
  EXPECT_EQ(A.BootstrapRuntimes, B.BootstrapRuntimes);
}

TEST(ExperimentTest, BalancedBeatsTraditionalOnMdgHighVariance) {
  // The paper's flagship data point (Table 2): MDG on N(2,5) improves by
  // ~21% under UNLIMITED. We assert a significant positive improvement.
  Function F = buildBenchmark(Benchmark::MDG);
  NetworkSystem Mem(2, 5);
  SchedulerComparison Cmp =
      runComparison(F, Mem, Mem.optimisticLatency(), quickSim()).value();
  EXPECT_GT(Cmp.Improvement.MeanPercent, 3.0);
  EXPECT_TRUE(Cmp.Improvement.significant());
}

TEST(ExperimentTest, ImprovementGrowsWithVariance) {
  // Table 2 trend: N(2,5) gains exceed N(2,2) gains.
  Function F = buildBenchmark(Benchmark::MDG);
  NetworkSystem LowVar(2, 2), HighVar(2, 5);
  SchedulerComparison Low = runComparison(F, LowVar, 2.0, quickSim()).value();
  SchedulerComparison High =
      runComparison(F, HighVar, 2.0, quickSim()).value();
  EXPECT_GT(High.Improvement.MeanPercent, Low.Improvement.MeanPercent);
}

TEST(ExperimentTest, ImprovementGrowsWithMissPenalty) {
  // Table 2 trend: L80(2,10) gains exceed L80(2,5) gains.
  Function F = buildBenchmark(Benchmark::ARC2D);
  CacheSystem SmallMiss(0.8, 2, 5), BigMiss(0.8, 2, 10);
  SchedulerComparison A =
      runComparison(F, SmallMiss, 2.0, quickSim()).value();
  SchedulerComparison B = runComparison(F, BigMiss, 2.0, quickSim()).value();
  EXPECT_GT(B.Improvement.MeanPercent, A.Improvement.MeanPercent);
}

TEST(ExperimentTest, RestrictedProcessorsStillImprove) {
  Function F = buildBenchmark(Benchmark::MDG);
  NetworkSystem Mem(3, 5);
  for (ProcessorModel P :
       {ProcessorModel::maxOutstanding(8), ProcessorModel::maxLength(8)}) {
    SchedulerComparison Cmp =
        runComparison(F, Mem, 3.0, quickSim(P)).value();
    EXPECT_GT(Cmp.Improvement.MeanPercent, 0.0) << P.name();
  }
}

TEST(ExperimentTest, AverageLlpNoBetterThanTraditional) {
  // The paper's section 3 negative result: averaging LLP over the block
  // gains little or nothing over the traditional scheduler.
  Function F = buildBenchmark(Benchmark::MDG);
  NetworkSystem Mem(2, 5);
  SchedulerComparison Balanced =
      runComparison(F, Mem, 2.0, quickSim(), SchedulerPolicy::Balanced)
          .value();
  SchedulerComparison Average =
      runComparison(F, Mem, 2.0, quickSim(), SchedulerPolicy::AverageLlp)
          .value();
  EXPECT_GT(Balanced.Improvement.MeanPercent,
            Average.Improvement.MeanPercent);
}

//===----------------------------------------------------------------------===
// Config presets, validation, and policy-name parsing
//===----------------------------------------------------------------------===

TEST(PipelineConfigTest, PaperDefaultIsTheDefaultConfig) {
  PipelineConfig Preset = PipelineConfig::paperDefault();
  PipelineConfig Default;
  EXPECT_EQ(Preset.Policy, Default.Policy);
  EXPECT_EQ(Preset.RunRegAlloc, Default.RunRegAlloc);
  EXPECT_EQ(Preset.SchedOptions.IssueWidth, Default.SchedOptions.IssueWidth);
  EXPECT_TRUE(Preset.validate().ok());
}

TEST(PipelineConfigTest, UnlimitedRegistersSkipsAllocation) {
  PipelineConfig Preset = PipelineConfig::unlimitedRegisters();
  EXPECT_FALSE(Preset.RunRegAlloc);
  EXPECT_TRUE(Preset.validate().ok());
  // The preset delivers what it promises: no spill code at all.
  Function F = buildBenchmark(Benchmark::QCD2);
  CompiledFunction C = runPipeline(F, Preset).value();
  EXPECT_EQ(C.StaticSpills, 0u);
}

TEST(PipelineConfigTest, SuperscalarSetsIssueWidth) {
  EXPECT_EQ(PipelineConfig::superscalar(4).SchedOptions.IssueWidth, 4u);
  EXPECT_TRUE(PipelineConfig::superscalar(4).validate().ok());
}

TEST(PipelineConfigTest, ValidateRejectsBadKnobs) {
  PipelineConfig Bad = PipelineConfig::superscalar(0);
  Status S = Bad.validate();
  EXPECT_FALSE(S.ok());
  ASSERT_FALSE(S.diagnostics().empty());
  EXPECT_EQ(S.diagnostics().front().Code, DiagCode::PipelineBadConfig);

  // runPipeline performs the same check and degrades instead of aborting.
  Function F = buildBenchmark(Benchmark::TRACK);
  ErrorOr<CompiledFunction> C = runPipeline(F, Bad);
  ASSERT_FALSE(C.has_value());
  EXPECT_EQ(C.errors().front().Code, DiagCode::PipelineBadConfig);

  // Latencies and register files big enough to hang or exhaust a compile.
  constexpr double Inf = std::numeric_limits<double>::infinity();
  const std::pair<const char *, std::function<void(PipelineConfig &)>>
      Hostile[] = {
          {"optimistic latency 1e8",
           [](PipelineConfig &C) {
             C.Policy = SchedulerPolicy::Traditional;
             C.OptimisticLatency = 1e8;
           }},
          {"optimistic latency inf",
           [](PipelineConfig &C) {
             C.Policy = SchedulerPolicy::Traditional;
             C.OptimisticLatency = Inf;
           }},
          {"fadd latency inf",
           [](PipelineConfig &C) { C.Ops.setOpLatency(Opcode::FAdd, Inf); }},
          {"fadd latency 1e9",
           [](PipelineConfig &C) { C.Ops.setOpLatency(Opcode::FAdd, 1e9); }},
          {"4e9 integer registers",
           [](PipelineConfig &C) { C.Target.NumIntRegs = 4000000000u; }},
          {"1e8 floating-point registers",
           [](PipelineConfig &C) { C.Target.NumFpRegs = 100000000u; }},
          // Pool sizes whose reserved-register sums wrap in 32 bits.
          {"spill pool 4294967295",
           [](PipelineConfig &C) { C.Target.SpillPoolSize = 4294967295u; }},
          {"spill pool 4294967294",
           [](PipelineConfig &C) { C.Target.SpillPoolSize = 4294967294u; }},
          // Deadlines an active budget can never trip, or that toJson
          // cannot write.
          {"deadline -5",
           [](PipelineConfig &C) { C.Budget.DeadlineMs = -5.0; }},
          {"deadline inf",
           [](PipelineConfig &C) { C.Budget.DeadlineMs = Inf; }},
          {"deadline NaN",
           [](PipelineConfig &C) {
             C.Budget.DeadlineMs = std::numeric_limits<double>::quiet_NaN();
           }},
          // Under every policy, not only the traditional one.
          {"optimistic latency -3 under balanced",
           [](PipelineConfig &C) { C.OptimisticLatency = -3.0; }},
      };
  for (const auto &[Name, Mutate] : Hostile) {
    PipelineConfig Config = PipelineConfig::paperDefault();
    Mutate(Config);
    Status Rejected = Config.validate();
    ASSERT_FALSE(Rejected.ok()) << Name;
    EXPECT_EQ(Rejected.diagnostics().front().Code,
              DiagCode::PipelineBadConfig)
        << Name;
  }
}

TEST(PipelineConfigTest, ParsePolicyNameRoundTripsEveryPolicy) {
  for (SchedulerPolicy P :
       {SchedulerPolicy::Traditional, SchedulerPolicy::Balanced,
        SchedulerPolicy::BalancedUnionFind, SchedulerPolicy::AverageLlp,
        SchedulerPolicy::NoScheduling}) {
    ErrorOr<SchedulerPolicy> Parsed = parsePolicyName(policyName(P));
    ASSERT_TRUE(Parsed.has_value()) << policyName(P);
    EXPECT_EQ(*Parsed, P);
  }
}

TEST(PipelineConfigTest, ParsePolicyNameTrimsWhitespace) {
  ErrorOr<SchedulerPolicy> Parsed = parsePolicyName("  balanced-uf\t");
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(*Parsed, SchedulerPolicy::BalancedUnionFind);
}

TEST(PipelineConfigTest, ParsePolicyNameRejectsUnknownSpelling) {
  ErrorOr<SchedulerPolicy> Parsed = parsePolicyName("blanced");
  ASSERT_FALSE(Parsed.has_value());
  EXPECT_EQ(Parsed.errors().front().Code, DiagCode::PipelineUnknownPolicy);
  // The message teaches the accepted spellings.
  EXPECT_NE(Parsed.errorText().find("balanced"), std::string::npos);
  EXPECT_NE(Parsed.errorText().find("traditional"), std::string::npos);
}

// A load that redefines its own base, then a store through the reloaded
// base onto the word the load read. With the alias analysis off the
// same-base rule must compare the load at the address it reads: a base
// sampled after the load's def makes the store look disjoint from the
// load, and the certifier refutes that (BS732).
TEST(PipelineTest, SelfBaseLoadCompilesWithoutAliasAnalysis) {
  ParseResult Parsed = parseIr("func @chase {\n"
                               "block b freq 1.000000 {\n"
                               "  %i2 = addi %i1, -8\n"
                               "  store %i2, [%i1 + 8] !0\n"
                               "  %i1 = load [%i1 + 8] !0\n"
                               "  store %i3, [%i1 + 16] !0\n"
                               "}\n"
                               "}\n");
  ASSERT_TRUE(Parsed.ok());
  ASSERT_EQ(Parsed.Functions.size(), 1u);
  for (bool SameBase : {true, false}) {
    PipelineConfig Config = PipelineConfig::paperDefault();
    Config.DagOptions.AliasAnalysis = false;
    Config.DagOptions.DisambiguateSameBase = SameBase;
    ASSERT_TRUE(Config.Certify);
    ErrorOr<CompiledFunction> Compiled =
        runPipeline(Parsed.Functions.front(), Config);
    EXPECT_TRUE(Compiled.has_value())
        << "same-base=" << SameBase << ": " << Compiled.errorText();
  }
}

// The allocation certificate runs after renaming, so it checks the renamed
// block against the pre-allocation one: every Perfect Club program, under
// both aliasing translations and three first-pass schedules, certifies.
TEST(PipelineTest, RenamedAllocationsCertify) {
  for (bool Fortran : {true, false})
    for (Benchmark B : allBenchmarks()) {
      WorkloadOptions Options;
      Options.FortranAliasing = Fortran;
      Function F = buildBenchmark(B, Options);
      for (SchedulerPolicy Policy :
           {SchedulerPolicy::Balanced, SchedulerPolicy::Traditional,
            SchedulerPolicy::NoScheduling}) {
        PipelineConfig Config = PipelineConfig::paperDefault();
        Config.Policy = Policy;
        Config.RenameAfterAllocation = true;
        ASSERT_TRUE(Config.Certify);
        ErrorOr<CompiledFunction> Compiled = runPipeline(F, Config);
        EXPECT_TRUE(Compiled.has_value())
            << benchmarkName(B) << " fortran=" << Fortran << " "
            << policyName(Policy) << ": " << Compiled.errorText();
      }
    }
}

// Live-ins enter the block in general registers of their own, so a block
// with more live-ins of a class than general registers is refused up
// front (BS501, naming the block) when the allocator runs.
TEST(PipelineTest, MoreLiveInsThanGeneralRegistersIsBS501) {
  ParseResult Parsed = parseIr("func @li {\n"
                               "block b freq 1 {\n"
                               "  %i10 = li 4096\n"
                               "  store %i1, [%i10 + 0] !0\n"
                               "  store %i2, [%i10 + 8] !0\n"
                               "  store %i3, [%i10 + 16] !0\n"
                               "  store %i4, [%i10 + 24] !0\n"
                               "  store %i5, [%i10 + 32] !0\n"
                               "  store %i1, [%i10 + 40] !0\n"
                               "}\n"
                               "}\n");
  ASSERT_TRUE(Parsed.ok());
  const Function &F = Parsed.Functions.front();
  PipelineConfig Config = PipelineConfig::paperDefault();
  Config.Policy = SchedulerPolicy::NoScheduling;
  Config.Target.NumIntRegs = 8; // 3 general + 4 pool + FP.
  ErrorOr<CompiledFunction> Refused = runPipeline(F, Config);
  ASSERT_FALSE(Refused.has_value());
  EXPECT_EQ(Refused.errors().front().Code, DiagCode::PipelineInvalidInput);
  EXPECT_NE(Refused.errorText().find("block 'b'"), std::string::npos)
      << Refused.errorText();

  Config.Target.NumIntRegs = 10; // 5 general: every live-in fits.
  EXPECT_TRUE(runPipeline(F, Config).has_value());
  // Without allocation live-ins take no registers.
  Config.Target.NumIntRegs = 8;
  Config.RunRegAlloc = false;
  EXPECT_TRUE(runPipeline(F, Config).has_value());
}

// The allocator renames virtual registers only. A kernel written in
// physical registers is refused up front (BS501, naming the block, the
// instruction and the register) whether or not the certifiers run, rather
// than renumbered; without allocation it compiles unchanged.
TEST(PipelineTest, PhysicalRegistersUnderAllocationAreBS501) {
  ParseResult Parsed = parseIr("func @p {\n"
                               "block b freq 1 {\n"
                               "  $i5 = addi $i4, 8\n"
                               "  store $i5, [$i4 + 0] !0\n"
                               "}\n"
                               "}\n");
  ASSERT_TRUE(Parsed.ok());
  const Function &F = Parsed.Functions.front();
  PipelineConfig Config = PipelineConfig::paperDefault();
  for (bool Certify : {true, false}) {
    Config.Certify = Certify;
    ErrorOr<CompiledFunction> Refused = runPipeline(F, Config);
    ASSERT_FALSE(Refused.has_value()) << "certify=" << Certify;
    EXPECT_EQ(Refused.errors().front().Code, DiagCode::PipelineInvalidInput);
    for (const char *Part : {"block 'b'", "$i5 = addi $i4, 8", "$i4"})
      EXPECT_NE(Refused.errorText().find(Part), std::string::npos)
          << Part << " missing from: " << Refused.errorText();
  }
  Config.RunRegAlloc = false;
  ErrorOr<CompiledFunction> Kept = runPipeline(F, Config);
  ASSERT_TRUE(Kept.has_value()) << Kept.errorText();
  EXPECT_EQ(printFunction(Kept->Compiled), printFunction(F));
}

//===----------------------------------------------------------------------===
// Golden output: the compiled text of fixed inputs, pinned by hash
//===----------------------------------------------------------------------===

namespace {

/// One pinned (input set, policy, config) case: Expected is stableHash of
/// the concatenated printFunction(runPipeline(...)) text over the set.
struct GoldenCase {
  SchedulerPolicy Policy;
  bool UnlimitedRegisters;
  uint64_t Expected;
  DagBuildOptions Dag = {};
};

/// " x same-base" or " x untracked" for the alias-analysis-off settings.
std::string aliasSettingName(const DagBuildOptions &Dag) {
  if (Dag.AliasAnalysis)
    return "";
  return Dag.DisambiguateSameBase ? " x same-base" : " x untracked";
}

/// Checks every case, compiling through \p Pool when it is set: a pooled
/// compile must hash to the same constants as the serial one.
void expectGoldenOutput(const char *InputSet,
                        const std::vector<Function> &Inputs,
                        const std::vector<GoldenCase> &Cases,
                        ThreadPool *Pool = nullptr) {
  for (const GoldenCase &Case : Cases) {
    PipelineConfig Config = Case.UnlimitedRegisters
                                ? PipelineConfig::unlimitedRegisters()
                                : PipelineConfig::paperDefault();
    Config.Policy = Case.Policy;
    Config.DagOptions = Case.Dag;
    Config.WeighterPool = Pool;
    const std::string Name =
        std::string(InputSet) + " x " + policyName(Case.Policy) + " x " +
        (Case.UnlimitedRegisters ? "unlimitedRegisters" : "paperDefault") +
        aliasSettingName(Case.Dag) + (Pool ? " (pooled)" : "");
    std::string Text;
    for (const Function &F : Inputs) {
      ErrorOr<CompiledFunction> Compiled = runPipeline(F, Config);
      ASSERT_TRUE(Compiled.has_value()) << Name << ": " << Compiled.errorText();
      Text += printFunction(Compiled->Compiled);
    }
    char Got[24];
    std::snprintf(Got, sizeof(Got), "0x%016" PRIx64, stableHash(Text));
    EXPECT_EQ(stableHash(Text), Case.Expected)
        << "compiled output changed for " << Name << " (now " << Got << ")";
  }
}

} // namespace

// Any change to compiled output (schedule order, spill placement, register
// choice) moves one of these hashes, so a refactor that claims identical
// output must pass unchanged. Regenerate a constant only for a change
// that is meant to alter schedules, and say so.
TEST(GoldenOutputTest, PerfectClubProgramsCompileToPinnedText) {
  std::vector<Function> Programs;
  for (Benchmark B : allBenchmarks())
    Programs.push_back(buildBenchmark(B));
  ThreadPool Pool(4);
  for (ThreadPool *Blocks : {static_cast<ThreadPool *>(nullptr), &Pool})
    expectGoldenOutput(
        "perfect-club", Programs,
        {{SchedulerPolicy::Balanced, false, 0x27c9e05f4124a094ull},
         {SchedulerPolicy::BalancedUnionFind, false, 0xd976d6ba7b4e5cf8ull},
         {SchedulerPolicy::Traditional, false, 0x8058893702474cc4ull},
         {SchedulerPolicy::Balanced, true, 0xf9d08fdec1cbd20cull},
         {SchedulerPolicy::BalancedUnionFind, true, 0x70610b98474e09a4ull},
         {SchedulerPolicy::Traditional, true, 0x0e8a08b719ea20d2ull}},
        Blocks);
}

// The paper's section 4.2 ablation path: the alias analysis off, with and
// without the same-base rule, under both aliasing translations.
TEST(GoldenOutputTest, PerfectClubWithoutAliasAnalysisCompilesToPinnedText) {
  const DagBuildOptions SameBase{.DisambiguateSameBase = true,
                                 .AliasAnalysis = false};
  const DagBuildOptions Untracked{.DisambiguateSameBase = false,
                                  .AliasAnalysis = false};
  const struct {
    bool FortranAliasing;
    std::vector<GoldenCase> Cases;
  } Sets[] = {
      {true,
       {{SchedulerPolicy::Balanced, false, 0x7d588f80a3acb8e6ull, SameBase},
        {SchedulerPolicy::Traditional, false, 0x9e1cc929cefe3bb8ull, SameBase},
        {SchedulerPolicy::Balanced, false, 0x2df5930338d8d57cull, Untracked},
        {SchedulerPolicy::Traditional, false, 0xa94e48117dcdd91aull,
         Untracked}}},
      {false,
       {{SchedulerPolicy::Balanced, false, 0x68f80ff54bf30512ull, SameBase},
        {SchedulerPolicy::Traditional, false, 0xb0514362ba884b73ull, SameBase},
        {SchedulerPolicy::Balanced, false, 0xc4337c7fec3dbc8bull, Untracked},
        {SchedulerPolicy::Traditional, false, 0x91662a81fb53f219ull,
         Untracked}}},
  };
  for (const auto &Set : Sets) {
    std::vector<Function> Programs;
    for (Benchmark B : allBenchmarks())
      Programs.push_back(
          buildBenchmark(B, {.FortranAliasing = Set.FortranAliasing}));
    expectGoldenOutput(Set.FortranAliasing ? "perfect-club" : "perfect-club-c",
                       Programs, Set.Cases);
  }
}

TEST(GoldenOutputTest, HugeBlockCompilesToPinnedText) {
  expectGoldenOutput("huge-2048", {buildHugeBlock(2048)},
                     {{SchedulerPolicy::Balanced, false, 0xdccaffa79bd82febull},
                      {SchedulerPolicy::BalancedUnionFind, false,
                       0x0c4913d7f13aefebull}});
}

namespace {

/// Appends the bit pattern of \p V to \p Out (exact, unlike printing).
void appendBits(std::string &Out, double V) {
  char Bytes[sizeof(double)];
  std::memcpy(Bytes, &V, sizeof(V));
  Out.append(Bytes, sizeof(Bytes));
}

} // namespace

// The simulated side of the tables: every bootstrap runtime, mean, and
// interlock figure runSimulation returns for the Perfect Club programs,
// bit for bit, and the `bsched.sim.*` metrics it recorded. The loop runs
// twice: observed, through the per-run loops, and with no registry, as
// the engine's unobserved cells run (UNLIMITED side by side). A change to
// the simulator's loop that claims identical results must pass unchanged.
TEST(GoldenOutputTest, PerfectClubSimulatesToPinnedBits) {
  const ProcessorModel Processors[] = {ProcessorModel::unlimited(),
                                       ProcessorModel::maxOutstanding(8),
                                       ProcessorModel::maxLength(8)};
  const CacheSystem L80(0.8, 2, 10);
  const NetworkSystem N3(3, 5), N30(30, 5);
  const MemorySystem *Memories[] = {&L80, &N3, &N30};

  std::vector<CompiledFunction> Programs;
  for (Benchmark B : allBenchmarks()) {
    Function F = buildBenchmark(B);
    PipelineConfig Trad = PipelineConfig::paperDefault();
    Trad.Policy = SchedulerPolicy::Traditional;
    Trad.OptimisticLatency = 2;
    PipelineConfig Bal = PipelineConfig::paperDefault();
    Bal.Policy = SchedulerPolicy::Balanced;
    for (const PipelineConfig &Config : {Trad, Bal}) {
      ErrorOr<CompiledFunction> Compiled = runPipeline(F, Config);
      ASSERT_TRUE(Compiled.has_value()) << Compiled.errorText();
      Programs.push_back(std::move(*Compiled));
    }
  }

  MetricRegistry Registry;
  for (MetricRegistry *Metrics :
       {&Registry, static_cast<MetricRegistry *>(nullptr)}) {
    std::string Bits;
    for (const CompiledFunction &Compiled : Programs) {
      for (const ProcessorModel &P : Processors) {
        for (const MemorySystem *Mem : Memories) {
          SimulationConfig Sim;
          Sim.Processor = P;
          Sim.Obs.Metrics = Metrics;
          ErrorOr<ProgramSimResult> Result =
              runSimulation(Compiled, *Mem, Sim);
          ASSERT_TRUE(Result.has_value()) << Result.errorText();
          for (double V : Result->BootstrapRuntimes)
            appendBits(Bits, V);
          appendBits(Bits, Result->MeanRuntime);
          appendBits(Bits, Result->MeanInterlockCycles);
          appendBits(Bits, Result->DynamicInstructions);
        }
      }
    }
    char Got[24];
    std::snprintf(Got, sizeof(Got), "0x%016" PRIx64, stableHash(Bits));
    EXPECT_EQ(stableHash(Bits), 0xa1769d6e8b1dd725ull)
        << "simulated results changed (now " << Got << ", "
        << (Metrics ? "observed" : "unobserved") << ")";
  }
  char Got[24];
  const std::string Metrics = Registry.snapshot().toJson();
  std::snprintf(Got, sizeof(Got), "0x%016" PRIx64, stableHash(Metrics));
  EXPECT_EQ(stableHash(Metrics), 0xa12576b6cf8809c2ull)
      << "simulator metrics changed (now " << Got << ")";
}
