//===- tests/CertifierTest.cpp - Translation-validation tests -------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// Positive tests: every schedule and allocation the real passes produce
// certifies cleanly. Negative tests: hand-corrupted schedules and
// allocations are rejected with the documented BS code — the certifiers
// would catch a miscompiling scheduler or allocator, not just a crashed
// one.
//
//===----------------------------------------------------------------------===//

#include "analysis/AllocationCertifier.h"
#include "analysis/ScheduleCertifier.h"
#include "dag/DagBuilder.h"
#include "parser/Parser.h"
#include "pipeline/Pipeline.h"
#include "sched/BalancedWeighter.h"
#include "sched/TraditionalWeighter.h"
#include "workload/PerfectClub.h"

#include <gtest/gtest.h>

using namespace bsched;

namespace {

Function parse(const char *Source) {
  ParseResult Result = parseIr(Source);
  EXPECT_TRUE(Result.ok()) << "parse failed: "
                           << (Result.Diags.empty()
                                   ? "?"
                                   : Result.Diags.front().str());
  return std::move(Result.Functions.front());
}

bool hasCode(const std::vector<Diagnostic> &Diags, DiagCode Code) {
  for (const Diagnostic &D : Diags)
    if (D.Code == Code)
      return true;
  return false;
}

std::string codes(const std::vector<Diagnostic> &Diags) {
  std::string S;
  for (const Diagnostic &D : Diags)
    S += diagCodeString(D.Code) + ": " + D.Message + "\n";
  return S;
}

// A block with real dependence variety: RAW chains through loads, a WAR
// (the addi rewrites %i0 after the loads read it) and memory ordering
// (the store may alias the loads' class).
const char *ScheduleSource = R"(
func @f {
block body freq 1 {
  %i0 = li 4096
  %f0 = fload [%i0 + 0] !a
  %f1 = fload [%i0 + 8] !a
  %f2 = fadd %f0, %f1
  %i0 = addi %i0, 16
  %f3 = fload [%i0 + 0] !a
  %f4 = fmadd %f2, %f3, %f2
  fstore %f4, [%i0 + 8] !a
  ret
}
}
)";

struct Scheduled {
  Function F;
  DepDag Dag;
  Schedule Sched;

  explicit Scheduled(const char *Source, const Weighter &W,
                     SchedulerOptions Options = {})
      : F(parse(Source)), Dag(buildDag(F.block(0))) {
    W.assignWeights(Dag);
    Sched = scheduleDag(Dag, Options);
  }
};

} // namespace

//===----------------------------------------------------------------------===
// Schedule certification: positive
//===----------------------------------------------------------------------===

TEST(ScheduleCertifierTest, RealSchedulesCertify) {
  LatencyModel Ops;
  for (double Latency : {1.0, 2.0, 5.0}) {
    TraditionalWeighter W(Latency, Ops);
    Scheduled S(ScheduleSource, W);
    std::vector<Diagnostic> Diags =
        certifySchedule(S.F.block(0), S.Dag, S.Sched, Ops);
    EXPECT_TRUE(Diags.empty()) << codes(Diags);
  }
  BalancedWeighter BW;
  Scheduled S(ScheduleSource, BW);
  std::vector<Diagnostic> Diags =
      certifySchedule(S.F.block(0), S.Dag, S.Sched, Ops);
  EXPECT_TRUE(Diags.empty()) << codes(Diags);
}

TEST(ScheduleCertifierTest, SuperscalarAndMultiCycleFpCertify) {
  LatencyModel Ops = LatencyModel::withFpLatency(4.0);
  BalancedWeighter W(Ops);
  for (unsigned Width : {2u, 4u}) {
    SchedulerOptions Options;
    Options.IssueWidth = Width;
    Scheduled S(ScheduleSource, W, Options);
    std::vector<Diagnostic> Diags =
        certifySchedule(S.F.block(0), S.Dag, S.Sched, Ops, Options);
    EXPECT_TRUE(Diags.empty()) << codes(Diags);
  }
}

TEST(ScheduleCertifierTest, HandBuiltScheduleWithoutCyclesCertifies) {
  // Program order is always a valid order; without IssueCycle data only
  // the ordering obligations are checked.
  LatencyModel Ops;
  Function F = parse(ScheduleSource);
  DepDag Dag = buildDag(F.block(0));
  Schedule Sched;
  for (unsigned I = 0; I != Dag.size(); ++I)
    Sched.Order.push_back(I);
  std::vector<Diagnostic> Diags =
      certifySchedule(F.block(0), Dag, Sched, Ops);
  EXPECT_TRUE(Diags.empty()) << codes(Diags);
}

//===----------------------------------------------------------------------===
// Schedule certification: hand-corrupted schedules
//===----------------------------------------------------------------------===

TEST(ScheduleCertifierTest, SwappingDependentOpsIsRejected) {
  LatencyModel Ops;
  TraditionalWeighter W(2.0, Ops);
  Scheduled S(ScheduleSource, W);

  // Swap a data-dependent producer/consumer pair in the emitted order:
  // find an edge and exchange the two nodes' positions.
  std::vector<unsigned> Pos(S.Dag.size());
  for (unsigned P = 0; P != S.Sched.Order.size(); ++P)
    Pos[S.Sched.Order[P]] = P;
  unsigned From = 0, To = 0;
  for (unsigned N = 0; N != S.Dag.size() && From == To; ++N)
    for (const DepEdge &E : S.Dag.succs(N)) {
      From = N;
      To = E.Other;
      break;
    }
  ASSERT_NE(From, To);
  std::swap(S.Sched.Order[Pos[From]], S.Sched.Order[Pos[To]]);
  S.Sched.IssueCycle.clear(); // Isolate the ordering obligation.

  std::vector<Diagnostic> Diags =
      certifySchedule(S.F.block(0), S.Dag, S.Sched, Ops);
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyDependenceViolated))
      << codes(Diags);
}

TEST(ScheduleCertifierTest, DuplicatedAndDroppedNodesAreRejected) {
  LatencyModel Ops;
  TraditionalWeighter W(2.0, Ops);
  Scheduled S(ScheduleSource, W);
  S.Sched.Order[0] = S.Sched.Order[1]; // Node emitted twice, one dropped.
  S.Sched.IssueCycle.clear();

  std::vector<Diagnostic> Diags =
      certifySchedule(S.F.block(0), S.Dag, S.Sched, Ops);
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyNotPermutation))
      << codes(Diags);
}

TEST(ScheduleCertifierTest, TruncatedScheduleIsRejected) {
  LatencyModel Ops;
  TraditionalWeighter W(2.0, Ops);
  Scheduled S(ScheduleSource, W);
  S.Sched.Order.pop_back();
  S.Sched.IssueCycle.clear();

  std::vector<Diagnostic> Diags =
      certifySchedule(S.F.block(0), S.Dag, S.Sched, Ops);
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyNotPermutation))
      << codes(Diags);
}

TEST(ScheduleCertifierTest, ShrunkLatencyGapIsRejected) {
  // %f0 = fload ... ; %f1 = fadd %f0, %f0 — the consumer must trail the
  // load by its weight (3 cycles under traditional(3)).
  LatencyModel Ops;
  TraditionalWeighter W(3.0, Ops);
  Scheduled S(R"(
func @f {
block body freq 1 {
  %f0 = fload [%i0 + 0] !a
  %f1 = fadd %f0, %f0
  fstore %f1, [%i0 + 8] !b
  ret
}
}
)",
              W);
  {
    std::vector<Diagnostic> Clean =
        certifySchedule(S.F.block(0), S.Dag, S.Sched, Ops);
    ASSERT_TRUE(Clean.empty()) << codes(Clean);
  }

  // Claim everything issues back-to-back: the fadd now trails the load by
  // 1 cycle instead of the 3 its weight demands.
  Schedule Corrupt = S.Sched;
  for (unsigned P = 0; P != Corrupt.Order.size(); ++P)
    Corrupt.IssueCycle[Corrupt.Order[P]] = P;
  Corrupt.NumVirtualNops = 0; // Keep the no-op cross-check consistent.

  std::vector<Diagnostic> Diags =
      certifySchedule(S.F.block(0), S.Dag, Corrupt, Ops);
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyLatencyViolated))
      << codes(Diags);
}

TEST(ScheduleCertifierTest, OverfilledCycleIsRejected) {
  LatencyModel Ops;
  TraditionalWeighter W(2.0, Ops);
  Scheduled S(ScheduleSource, W);

  // Claim two independent instructions share a cycle on the width-1
  // machine: collapse the first two order positions onto one cycle.
  unsigned First = S.Sched.Order[0], Second = S.Sched.Order[1];
  S.Sched.IssueCycle[Second] = S.Sched.IssueCycle[First];

  std::vector<Diagnostic> Diags =
      certifySchedule(S.F.block(0), S.Dag, S.Sched, Ops);
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyIssueWidthExceeded))
      << codes(Diags);
}

TEST(ScheduleCertifierTest, WrongNopCountIsRejected) {
  LatencyModel Ops;
  TraditionalWeighter W(5.0, Ops);
  Scheduled S(ScheduleSource, W);
  S.Sched.NumVirtualNops += 1;

  std::vector<Diagnostic> Diags =
      certifySchedule(S.F.block(0), S.Dag, S.Sched, Ops);
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyScheduleMalformed))
      << codes(Diags);
}

TEST(ScheduleCertifierTest, DagBlockMismatchIsRejected) {
  LatencyModel Ops;
  TraditionalWeighter W(2.0, Ops);
  Scheduled S(ScheduleSource, W);

  // Certify against a different block than the DAG was built from.
  Function Other = parse(R"(
func @g {
block body freq 1 {
  %i0 = li 1
  %i1 = addi %i0, 2
  %i2 = add %i1, %i0
  %i3 = add %i2, %i1
  %i4 = add %i3, %i2
  %i5 = add %i4, %i3
  %i6 = add %i5, %i4
  %i7 = add %i6, %i5
  ret
}
}
)");
  std::vector<Diagnostic> Diags =
      certifySchedule(Other.block(0), S.Dag, S.Sched, Ops);
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyScheduleMalformed))
      << codes(Diags);
}

//===----------------------------------------------------------------------===
// Allocation certification
//===----------------------------------------------------------------------===

namespace {

/// A program with enough simultaneously-live FP values to overflow a
/// shrunken register file, forcing spill stores and reloads.
std::string spillHeavySource(unsigned NumValues) {
  std::string S = "func @spill {\nblock body freq 1 {\n";
  S += "  %i0 = li 4096\n";
  for (unsigned I = 0; I != NumValues; ++I)
    S += "  %f" + std::to_string(I) + " = fload [%i0 + " +
         std::to_string(8 * I) + "] !a\n";
  // Sum in load order; every value stays live until consumed.
  S += "  %f" + std::to_string(NumValues) + " = fadd %f0, %f1\n";
  for (unsigned I = 2; I != NumValues; ++I)
    S += "  %f" + std::to_string(NumValues + I - 1) + " = fadd %f" +
         std::to_string(NumValues + I - 2) + ", %f" + std::to_string(I) +
         "\n";
  S += "  fstore %f" + std::to_string(2 * NumValues - 2) +
       ", [%i0 + 0] !b\n  ret\n}\n}\n";
  return S;
}

/// Small register files so ~12 live values spill.
TargetDescription tinyTarget() {
  TargetDescription T;
  T.NumIntRegs = 10;
  T.NumFpRegs = 8; // generalRegs(Fp) = 8 - 4 = 4.
  return T;
}

struct Allocated {
  Function F;
  BasicBlock Before;
  RegAllocResult Alloc;
  TargetDescription Target;
  AliasClassId SpillClass;

  explicit Allocated(const std::string &Source,
                     TargetDescription T = tinyTarget())
      : F(parse(Source.c_str())), Before(F.block(0)), Target(T) {
    Alloc = allocateRegisters(F, F.block(0), Target);
    SpillClass = F.getOrCreateAliasClass(SpillAliasClassName);
  }

  std::vector<Diagnostic> certify() const {
    return certifyAllocation(Before, F.block(0), Alloc, Target, SpillClass);
  }
};

} // namespace

TEST(AllocationCertifierTest, SpillHeavyAllocationCertifies) {
  Allocated A(spillHeavySource(12));
  EXPECT_GT(A.Alloc.SpillStores, 0u);
  EXPECT_GT(A.Alloc.SpillLoads, 0u);
  std::vector<Diagnostic> Diags = A.certify();
  EXPECT_TRUE(Diags.empty()) << codes(Diags);
}

TEST(AllocationCertifierTest, LiveInFunctionCertifies) {
  Allocated A(R"(
func @f {
block body freq 1 {
  %i1 = load [%i0 + 0] !a
  %i2 = add %i1, %i9
  store %i2, [%i0 + 8] !a
  ret
}
}
)");
  EXPECT_FALSE(A.Alloc.LiveInAssignment.empty());
  std::vector<Diagnostic> Diags = A.certify();
  EXPECT_TRUE(Diags.empty()) << codes(Diags);
}

TEST(AllocationCertifierTest, SwappedSourceRegisterIsRejected) {
  Allocated A(spillHeavySource(12));
  // Redirect one fadd input to a different (wrong) physical register.
  BasicBlock &BB = A.F.block(0);
  for (Instruction &I : BB) {
    if (I.opcode() != Opcode::FAdd)
      continue;
    Reg Old = I.source(0);
    unsigned WrongId = (Old.id() + 1) % A.Target.generalRegs(RegClass::Fp);
    I.setSource(0, Reg::makePhysical(RegClass::Fp, WrongId));
    break;
  }
  std::vector<Diagnostic> Diags = A.certify();
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyAllocWrongValue))
      << codes(Diags);
}

TEST(AllocationCertifierTest, DroppedSpillStoreIsRejected) {
  Allocated A(spillHeavySource(12));
  BasicBlock &BB = A.F.block(0);
  std::vector<Instruction> Kept;
  bool Dropped = false;
  for (const Instruction &I : BB) {
    if (!Dropped && I.isStore() && I.aliasClass() == A.SpillClass) {
      Dropped = true; // Lose the first spill store.
      continue;
    }
    Kept.push_back(I);
  }
  ASSERT_TRUE(Dropped);
  BB.setInstructions(std::move(Kept));

  std::vector<Diagnostic> Diags = A.certify();
  // The reload of the never-stored slot is a bad spill; the count
  // mismatch also shows up as a shape error.
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyAllocBadSpill))
      << codes(Diags);
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyAllocShapeMismatch))
      << codes(Diags);
}

TEST(AllocationCertifierTest, DroppedSpillReloadIsRejected) {
  Allocated A(spillHeavySource(12));
  BasicBlock &BB = A.F.block(0);
  std::vector<Instruction> Kept;
  bool Dropped = false;
  for (const Instruction &I : BB) {
    if (!Dropped && I.isLoad() && I.aliasClass() == A.SpillClass) {
      Dropped = true; // Lose the first reload.
      continue;
    }
    Kept.push_back(I);
  }
  ASSERT_TRUE(Dropped);
  BB.setInstructions(std::move(Kept));

  std::vector<Diagnostic> Diags = A.certify();
  // Whoever read the reloaded register now reads a missing/stale value.
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyAllocWrongValue))
      << codes(Diags);
}

TEST(AllocationCertifierTest, OutOfFileRegisterIsRejected) {
  Allocated A(spillHeavySource(12));
  BasicBlock &BB = A.F.block(0);
  for (Instruction &I : BB)
    if (I.hasDest() && I.dest().regClass() == RegClass::Fp) {
      I.setDest(Reg::makePhysical(RegClass::Fp, 99));
      break;
    }
  std::vector<Diagnostic> Diags = A.certify();
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyAllocRegisterBound))
      << codes(Diags);
}

TEST(AllocationCertifierTest, FramePointerMisuseIsRejected) {
  Allocated A(R"(
func @f {
block body freq 1 {
  %i0 = li 8
  %i1 = addi %i0, 1
  store %i1, [%i0 + 0] !a
  ret
}
}
)");
  BasicBlock &BB = A.F.block(0);
  // Hand the reserved frame pointer to an ordinary instruction.
  for (Instruction &I : BB)
    if (I.opcode() == Opcode::AddI) {
      I.setDest(A.Target.framePointer());
      break;
    }
  std::vector<Diagnostic> Diags = A.certify();
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyAllocRegisterBound))
      << codes(Diags);
}

TEST(AllocationCertifierTest, ChangedShapeIsRejected) {
  Allocated A(spillHeavySource(12));
  BasicBlock &BB = A.F.block(0);
  for (Instruction &I : BB)
    if (I.opcode() == Opcode::FAdd) {
      // Rebuild the instruction as fsub: same operands, different opcode.
      I = Instruction::makeBinary(Opcode::FSub, I.dest(), I.source(0),
                                  I.source(1));
      break;
    }
  std::vector<Diagnostic> Diags = A.certify();
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyAllocShapeMismatch))
      << codes(Diags);
}

TEST(AllocationCertifierTest, DroppedInstructionIsRejected) {
  Allocated A(spillHeavySource(12));
  BasicBlock &BB = A.F.block(0);
  std::vector<Instruction> Kept;
  bool Dropped = false;
  for (const Instruction &I : BB) {
    if (!Dropped && I.opcode() == Opcode::FAdd) {
      Dropped = true; // Lose one program instruction.
      continue;
    }
    Kept.push_back(I);
  }
  ASSERT_TRUE(Dropped);
  BB.setInstructions(std::move(Kept));

  std::vector<Diagnostic> Diags = A.certify();
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyAllocMissingInstruction))
      << codes(Diags);
}

TEST(AllocationCertifierTest, TamperedLiveInAssignmentIsRejected) {
  Allocated A(R"(
func @f {
block body freq 1 {
  %i1 = load [%i0 + 0] !a
  store %i1, [%i0 + 8] !a
  ret
}
}
)");
  ASSERT_FALSE(A.Alloc.LiveInAssignment.empty());
  // LiveInAssignment is the entry state: without it no register holds the
  // live-in, so its read is a wrong value.
  A.Alloc.LiveInAssignment.clear();
  std::vector<Diagnostic> Diags = A.certify();
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyAllocWrongValue))
      << codes(Diags);
}

TEST(AllocationCertifierTest, LiveInSharingARegisterWrittenEarlierIsRejected) {
  const char *Source = R"(
func @chase {
block b freq 1 {
  %i2 = addi %i1, -8
  store %i2, [%i1 + 8] !0
  %i1 = load [%i1 + 8] !0
  store %i3, [%i1 + 16] !0
}
}
)";
  // An allocation that bound live-in %i3 at its first read, to the
  // register %i2 was computed into: $i1 holds %i2 when the last store
  // reads it, so seeding $i1 with %i3 at entry cannot reproduce the input.
  Function In = parse(Source);
  Function Out = parse(R"(
func @chase {
block b freq 1 {
  $i1 = addi $i0, -8
  store $i1, [$i0 + 8] !0
  $i0 = load [$i0 + 8] !0
  store $i1, [$i0 + 16] !0
}
}
)");
  RegAllocResult Alloc;
  Alloc.LiveInAssignment = {
      {Reg::makeVirtual(RegClass::Int, 1).rawBits(),
       Reg::makePhysical(RegClass::Int, 0)},
      {Reg::makeVirtual(RegClass::Int, 3).rawBits(),
       Reg::makePhysical(RegClass::Int, 1)}};
  TargetDescription Target;
  std::vector<Diagnostic> Diags = certifyAllocation(
      In.block(0), Out.block(0), Alloc, Target,
      Out.getOrCreateAliasClass(SpillAliasClassName));
  EXPECT_TRUE(hasCode(Diags, DiagCode::CertifyAllocWrongValue))
      << codes(Diags);

  // The allocator binds both live-ins at entry, and that certifies.
  Allocated A(Source, Target);
  Diags = A.certify();
  EXPECT_TRUE(Diags.empty()) << codes(Diags);
}

//===----------------------------------------------------------------------===
// Pipeline integration
//===----------------------------------------------------------------------===

TEST(CertifiedPipelineTest, BenchmarksCompileWithCertificationOn) {
  for (Benchmark B : {Benchmark::FLO52Q, Benchmark::QCD2}) {
    Function F = buildBenchmark(B);
    PipelineConfig Config; // Certify defaults on.
    ASSERT_TRUE(Config.Certify);
    ErrorOr<CompiledFunction> C = runPipeline(F, Config);
    EXPECT_TRUE(C.has_value()) << C.errorText();
  }
}

TEST(CertifiedPipelineTest, CertifyOffStillCompiles) {
  Function F = buildBenchmark(Benchmark::TRACK);
  PipelineConfig On, Off;
  Off.Certify = false;
  CompiledFunction A = runPipeline(F, On).value();
  CompiledFunction B = runPipeline(F, Off).value();
  // Certification is observation only: identical output either way.
  ASSERT_EQ(A.Compiled.numBlocks(), B.Compiled.numBlocks());
  for (unsigned Blk = 0; Blk != A.Compiled.numBlocks(); ++Blk) {
    ASSERT_EQ(A.Compiled.block(Blk).size(), B.Compiled.block(Blk).size());
    for (unsigned I = 0; I != A.Compiled.block(Blk).size(); ++I)
      EXPECT_EQ(A.Compiled.block(Blk)[I].str(),
                B.Compiled.block(Blk)[I].str());
  }
}

TEST(CertifiedPipelineTest, RenamingAndSuperscalarCertify) {
  Function F = buildBenchmark(Benchmark::MDG);
  PipelineConfig Config = PipelineConfig::superscalar(2);
  Config.RenameAfterAllocation = true;
  ErrorOr<CompiledFunction> C = runPipeline(F, Config);
  EXPECT_TRUE(C.has_value()) << C.errorText();
}
