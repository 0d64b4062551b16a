//===- tests/SchedTest.cpp - Unit tests for weighters & list scheduler ----==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// The paper's own worked examples are the primary fixtures: Figure 1
// (loads in series), Figure 4 (loads in parallel), and the Figure 7 /
// Table 1 contribution matrix.
//
//===----------------------------------------------------------------------===//

#include "dag/DagBuilder.h"
#include "ir/Interpreter.h"
#include "ir/IrBuilder.h"
#include "sched/AverageWeighter.h"
#include "sched/BalancedWeighter.h"
#include "sched/ListScheduler.h"
#include "sched/Schedule.h"
#include "sched/TraditionalWeighter.h"
#include "support/Rng.h"
#include "tests/TestDagHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace bsched;
using bsched::fixtures::Figure7;

namespace {
Reg vi(unsigned Id) { return Reg::makeVirtual(RegClass::Int, Id); }
} // namespace

//===----------------------------------------------------------------------===
// TraditionalWeighter
//===----------------------------------------------------------------------===

TEST(TraditionalWeighterTest, AssignsFixedLoadWeight) {
  DepDag Dag = fixtures::makeFigure1Dag();
  TraditionalWeighter W(5.0);
  W.assignWeights(Dag);
  EXPECT_DOUBLE_EQ(Dag.weight(0), 5.0); // L0
  EXPECT_DOUBLE_EQ(Dag.weight(1), 5.0); // L1
  EXPECT_DOUBLE_EQ(Dag.weight(2), 1.0); // X0
  EXPECT_EQ(W.name(), "traditional(5.00)");
}

TEST(TraditionalWeighterTest, UsesLatencyModelForNonLoads) {
  DepDag Dag = fixtures::makeFigure1Dag();
  LatencyModel Model = LatencyModel::withFpLatency(3.0);
  Model.setOpLatency(Opcode::AddI, 2.0);
  TraditionalWeighter W(2.0, Model);
  W.assignWeights(Dag);
  EXPECT_DOUBLE_EQ(Dag.weight(2), 2.0); // X nodes are AddI in the fixture.
}

//===----------------------------------------------------------------------===
// BalancedWeighter: the paper's examples
//===----------------------------------------------------------------------===

TEST(BalancedWeighterTest, Figure1SeriesLoads) {
  // Section 3: "The weight on each load instruction is simply one plus
  // the number of issue slots that may be initiated independently of the
  // load divided by the number of loads in series, or 1 + (4/2) = 3."
  DepDag Dag = fixtures::makeFigure1Dag();
  BalancedWeighter().assignWeights(Dag);
  EXPECT_DOUBLE_EQ(Dag.weight(0), 3.0);
  EXPECT_DOUBLE_EQ(Dag.weight(1), 3.0);
  for (unsigned X = 2; X != 7; ++X)
    EXPECT_DOUBLE_EQ(Dag.weight(X), 1.0);
}

TEST(BalancedWeighterTest, Figure4ParallelLoads) {
  // The prose says weight 6 (1 + 5/1) counting the five X instructions;
  // Figure 6's algorithm also has each load contribute 1 issue slot to the
  // other parallel load (as Table 1 confirms loads do), giving 7. We pin
  // the algorithmic value; see DESIGN.md.
  DepDag Dag = fixtures::makeFigure4Dag();
  BalancedWeighter().assignWeights(Dag);
  EXPECT_DOUBLE_EQ(Dag.weight(0), 7.0);
  EXPECT_DOUBLE_EQ(Dag.weight(1), 7.0);
}

TEST(BalancedWeighterTest, Table1ContributionMatrix) {
  // The X1 walkthrough of section 3: three connected components; X1
  // contributes 1/1 to L1 and 1/3 to each of L3, L4, L5, L6; nothing to
  // L2 (its predecessor).
  DepDag Dag = fixtures::makeFigure7Dag();
  BalancedWeighter Weighter;
  BalancedWeighter::Breakdown BD = Weighter.computeBreakdown(Dag);

  const auto &FromX1 = BD.Contribution[Figure7::X1];
  EXPECT_DOUBLE_EQ(FromX1[Figure7::L1], 1.0);
  EXPECT_DOUBLE_EQ(FromX1[Figure7::L2], 0.0);
  EXPECT_NEAR(FromX1[Figure7::L3], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(FromX1[Figure7::L4], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(FromX1[Figure7::L5], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(FromX1[Figure7::L6], 1.0 / 3.0, 1e-12);
}

TEST(BalancedWeighterTest, Table1RowDetails) {
  DepDag Dag = fixtures::makeFigure7Dag();
  BalancedWeighter::Breakdown BD =
      BalancedWeighter().computeBreakdown(Dag);

  // L1 receives exactly 1 from every other instruction (it is independent
  // of everything and always alone in its component).
  for (unsigned I = 0; I != Dag.size(); ++I) {
    double Expected = I == Figure7::L1 ? 0.0 : 1.0;
    EXPECT_DOUBLE_EQ(BD.Contribution[I][Figure7::L1], Expected) << I;
  }

  // L1 contributes 1/4 to each of L2..L6 (one component, 4 loads in
  // series: L2 -> L3 -> L5 -> L6).
  for (unsigned L : {Figure7::L2, Figure7::L3, Figure7::L4, Figure7::L5,
                     Figure7::L6})
    EXPECT_NEAR(BD.Contribution[Figure7::L1][L], 0.25, 1e-12) << L;

  // L4's parallel partners: L5 and L6 each contribute a full slot to L4,
  // and L4 contributes 1/2 to each of them ({L5, L6} is one 2-load chain).
  EXPECT_DOUBLE_EQ(BD.Contribution[Figure7::L5][Figure7::L4], 1.0);
  EXPECT_DOUBLE_EQ(BD.Contribution[Figure7::L6][Figure7::L4], 1.0);
  EXPECT_DOUBLE_EQ(BD.Contribution[Figure7::L4][Figure7::L5], 0.5);
  EXPECT_DOUBLE_EQ(BD.Contribution[Figure7::L4][Figure7::L6], 0.5);
}

TEST(BalancedWeighterTest, Table1FinalWeights) {
  // Paper's printed totals: L1 = 10, L3 = 2 5/12, L4 = 4 5/12,
  // L5 = L6 = 2 11/12. (For L2 the algorithm forces 1 3/4 where the paper
  // prints 1 1/4 — see DESIGN.md on this figure erratum.)
  DepDag Dag = fixtures::makeFigure7Dag();
  BalancedWeighter().assignWeights(Dag);
  EXPECT_DOUBLE_EQ(Dag.weight(Figure7::L1), 10.0);
  EXPECT_NEAR(Dag.weight(Figure7::L2), 1.75, 1e-12);
  EXPECT_NEAR(Dag.weight(Figure7::L3), 2.0 + 5.0 / 12.0, 1e-12);
  EXPECT_NEAR(Dag.weight(Figure7::L4), 4.0 + 5.0 / 12.0, 1e-12);
  EXPECT_NEAR(Dag.weight(Figure7::L5), 2.0 + 11.0 / 12.0, 1e-12);
  EXPECT_NEAR(Dag.weight(Figure7::L6), 2.0 + 11.0 / 12.0, 1e-12);
}

TEST(BalancedWeighterTest, LoadsWithNoParallelismKeepWeightOne) {
  // A pure chain L -> X -> L -> X: nothing independent of anything.
  DepDag Dag = fixtures::makeFigureDag({true, false, true, false},
                                      {{0, 1}, {1, 2}, {2, 3}});
  BalancedWeighter().assignWeights(Dag);
  EXPECT_DOUBLE_EQ(Dag.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(Dag.weight(2), 1.0);
}

TEST(BalancedWeighterTest, IssueSlotsAreOnePerInstruction) {
  // A 4-cycle FMul still occupies one issue slot, so it contributes one
  // slot of hiding capacity to a parallel load; its own latency appears
  // as its producer weight instead.
  BasicBlock BB("b");
  Reg Base = Reg::makeVirtual(RegClass::Int, 0);
  BB.append(Instruction::makeLoad(Opcode::FLoad,
                                  Reg::makeVirtual(RegClass::Fp, 0), Base, 0,
                                  0));
  BB.append(Instruction::makeBinary(Opcode::FMul,
                                    Reg::makeVirtual(RegClass::Fp, 3),
                                    Reg::makeVirtual(RegClass::Fp, 1),
                                    Reg::makeVirtual(RegClass::Fp, 2)));
  DepDag Dag = buildDag(BB);
  ASSERT_EQ(Dag.numEdges(), 0u);
  BalancedWeighter W(LatencyModel::withFpLatency(4.0));
  W.assignWeights(Dag);
  EXPECT_DOUBLE_EQ(Dag.weight(0), 2.0); // 1 + 1/1.
  EXPECT_DOUBLE_EQ(Dag.weight(1), 4.0); // The FMul keeps its op latency.
}

TEST(BalancedWeighterTest, IssueWidthDividesContributions) {
  // Width-2 machine: each independent instruction hides half a cycle.
  DepDag Dag = fixtures::makeFigure1Dag();
  BalancedWeighter W(LatencyModel(), ChancesMethod::ExactLongestPath,
                     /*SlotsPerCycle=*/2.0);
  W.assignWeights(Dag);
  EXPECT_DOUBLE_EQ(Dag.weight(0), 2.0); // 1 + (4/2)/2.
  EXPECT_DOUBLE_EQ(Dag.weight(1), 2.0);
}

TEST(BalancedWeighterTest, UnionFindVariantMatchesExactOnLoadChains) {
  // When every node on the longest path is a load, levels count loads
  // exactly, so both methods agree.
  DepDag Exact = fixtures::makeFigure1Dag();
  DepDag Approx = fixtures::makeFigure1Dag();
  BalancedWeighter(LatencyModel(), ChancesMethod::ExactLongestPath)
      .assignWeights(Exact);
  BalancedWeighter(LatencyModel(), ChancesMethod::UnionFindLevels)
      .assignWeights(Approx);
  for (unsigned I = 0; I != Exact.size(); ++I)
    EXPECT_DOUBLE_EQ(Exact.weight(I), Approx.weight(I)) << I;
}

TEST(BalancedWeighterTest, UnionFindVariantNeverBelowExactChances) {
  // Mixed chain L -> X -> L: node-level path length is 3, but only 2
  // loads; the approximation clamps to the load count.
  DepDag Dag = fixtures::makeFigureDag({true, false, true, false},
                                      {{0, 1}, {1, 2}});
  // Node 3 is independent of the chain; its G_ind component is {0,1,2}.
  BalancedWeighter(LatencyModel(), ChancesMethod::UnionFindLevels)
      .assignWeights(Dag);
  // Chances clamped to 2 loads -> node 3 contributes 1/2 to each load.
  EXPECT_DOUBLE_EQ(Dag.weight(0), 1.5);
  EXPECT_DOUBLE_EQ(Dag.weight(2), 1.5);
}

TEST(BalancedWeighterTest, NameReportsMethod) {
  EXPECT_EQ(BalancedWeighter().name(), "balanced");
  EXPECT_EQ(BalancedWeighter(LatencyModel(), ChancesMethod::UnionFindLevels)
                .name(),
            "balanced-uf");
}

//===----------------------------------------------------------------------===
// AverageWeighter
//===----------------------------------------------------------------------===

TEST(AverageWeighterTest, AssignsBlockAverageToAllLoads) {
  DepDag Dag = fixtures::makeFigure7Dag();
  AverageWeighter().assignWeights(Dag);
  // Average of the balanced weights {10, 1.75, 2 5/12, 4 5/12, 2 11/12,
  // 2 11/12} = 24.5 / 6.
  double Expected = (10.0 + 1.75 + (2 + 5.0 / 12) + (4 + 5.0 / 12) +
                     2 * (2 + 11.0 / 12)) /
                    6.0;
  for (unsigned L : {Figure7::L1, Figure7::L2, Figure7::L3, Figure7::L4,
                     Figure7::L5, Figure7::L6})
    EXPECT_NEAR(Dag.weight(L), Expected, 1e-12);
}

TEST(AverageWeighterTest, NoLoadsIsNoOp) {
  DepDag Dag = fixtures::makeFigureDag({false, false}, {{0, 1}});
  AverageWeighter().assignWeights(Dag);
  EXPECT_DOUBLE_EQ(Dag.weight(0), 1.0);
}

//===----------------------------------------------------------------------===
// Priorities
//===----------------------------------------------------------------------===

TEST(PriorityTest, WeightPlusMaxSuccessor) {
  DepDag Dag = fixtures::makeFigure1Dag();
  TraditionalWeighter(5.0).assignWeights(Dag);
  std::vector<double> P = computePriorities(Dag);
  EXPECT_DOUBLE_EQ(P[6], 1.0);  // X4 leaf.
  EXPECT_DOUBLE_EQ(P[1], 6.0);  // L1 = 5 + X4's 1.
  EXPECT_DOUBLE_EQ(P[0], 11.0); // L0 = 5 + 6.
  EXPECT_DOUBLE_EQ(P[2], 1.0);  // X0 leaf.
}

TEST(PriorityTest, FractionalWeightsPropagate) {
  DepDag Dag = fixtures::makeFigure1Dag();
  BalancedWeighter().assignWeights(Dag);
  std::vector<double> P = computePriorities(Dag);
  EXPECT_DOUBLE_EQ(P[0], 7.0); // 3 + 3 + 1.
}

//===----------------------------------------------------------------------===
// ListScheduler: the paper's Figure 2 schedules
//===----------------------------------------------------------------------===

namespace {

/// Position of node \p N in \p Sched.
unsigned posOf(const Schedule &Sched, unsigned N) {
  auto It = std::find(Sched.Order.begin(), Sched.Order.end(), N);
  EXPECT_NE(It, Sched.Order.end());
  return static_cast<unsigned>(It - Sched.Order.begin());
}

} // namespace

TEST(ListSchedulerTest, Figure2aGreedySchedule) {
  // Traditional W=5 on Figure 1. The paper's top-down illustration is
  // L0 X0 X1 X2 X3 L1 X4 (all parallelism spent on L0's gap); our
  // bottom-up scheduler produces the mirror image L0 L1 X0 X1 X2 X3 X4
  // (all parallelism spent on L1's gap). Both are "greedy": one load
  // hoards every independent instruction and the other gets none, which
  // is what Figure 3's interlock analysis depends on.
  DepDag Dag = fixtures::makeFigure1Dag();
  TraditionalWeighter(5.0).assignWeights(Dag);
  Schedule Sched = scheduleDag(Dag);
  ASSERT_TRUE(isValidSchedule(Dag, Sched));
  EXPECT_EQ(Sched.Order,
            (std::vector<unsigned>{0, 1, 2, 3, 4, 5, 6}));
  // The unfilled L0->L1 gap shows up as virtual no-ops (5 - 1 slots).
  EXPECT_EQ(Sched.NumVirtualNops, 4u);
}

TEST(ListSchedulerTest, Figure2bLazySchedule) {
  // Traditional W=1: the loads are packed with no padding at all ("lazy"):
  // L0, L1 and X4 end up adjacent. (The paper's illustration places the
  // load cluster at the top; our bottom-up mirror places it at the end.)
  DepDag Dag = fixtures::makeFigure1Dag();
  TraditionalWeighter(1.0).assignWeights(Dag);
  Schedule Sched = scheduleDag(Dag);
  ASSERT_TRUE(isValidSchedule(Dag, Sched));
  EXPECT_EQ(posOf(Sched, 1), posOf(Sched, 0) + 1); // L1 right after L0.
  EXPECT_EQ(posOf(Sched, 6), posOf(Sched, 1) + 1); // X4 right after L1.
  EXPECT_EQ(Sched.NumVirtualNops, 0u);
}

TEST(ListSchedulerTest, Figure2cBalancedSchedule) {
  // Balanced (W=3 each): L0 X X L1 X X X4 — the gap is split evenly.
  DepDag Dag = fixtures::makeFigure1Dag();
  BalancedWeighter().assignWeights(Dag);
  Schedule Sched = scheduleDag(Dag);
  ASSERT_TRUE(isValidSchedule(Dag, Sched));
  EXPECT_EQ(Sched.Order[0], 0u);  // L0 first.
  EXPECT_EQ(posOf(Sched, 1), 3u); // L1 fourth: two X's after L0.
  EXPECT_EQ(posOf(Sched, 6), 6u); // X4 last: two X's after L1.
}

TEST(ListSchedulerTest, Figure5ParallelLoadsShareTheSchedule) {
  // Figure 5 shows L0 L1 X0..X4: the parallel loads issue back to back and
  // share the X instructions as padding. Our bottom-up scheduler emits the
  // mirror (X0..X4 L0 L1) — the loads are still adjacent and unpadded,
  // which is equivalent here because nothing in the block consumes them.
  DepDag Dag = fixtures::makeFigure4Dag();
  BalancedWeighter().assignWeights(Dag);
  Schedule Sched = scheduleDag(Dag);
  ASSERT_TRUE(isValidSchedule(Dag, Sched));
  unsigned PosL0 = posOf(Sched, 0), PosL1 = posOf(Sched, 1);
  EXPECT_EQ(PosL0 + 1, PosL1); // Loads adjacent, issued in program order.
  EXPECT_EQ(Sched.NumVirtualNops, 0u);
}

//===----------------------------------------------------------------------===
// ListScheduler: mechanics
//===----------------------------------------------------------------------===

TEST(ListSchedulerTest, EmptyDag) {
  BasicBlock BB("b");
  DepDag Dag(BB);
  Schedule Sched = scheduleDag(Dag);
  EXPECT_TRUE(Sched.Order.empty());
  EXPECT_TRUE(isValidSchedule(Dag, Sched));
}

TEST(ListSchedulerTest, SingleNode) {
  DepDag Dag = fixtures::makeFigureDag({true}, {});
  TraditionalWeighter(2.0).assignWeights(Dag);
  Schedule Sched = scheduleDag(Dag);
  EXPECT_EQ(Sched.Order, (std::vector<unsigned>{0}));
}

TEST(ListSchedulerTest, VirtualNopsOnStarvation) {
  // Load feeding its only consumer with nothing to fill the gap: the
  // deferred ready list starves and virtual no-ops are inserted.
  DepDag Dag = fixtures::makeFigureDag({true, false}, {{0, 1}});
  TraditionalWeighter(4.0).assignWeights(Dag);
  Schedule Sched = scheduleDag(Dag);
  EXPECT_EQ(Sched.Order, (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(Sched.NumVirtualNops, 3u); // Gap of 4 minus the 1 real slot.
}

TEST(ListSchedulerTest, NoNopsWhenGapIsFilled) {
  DepDag Dag = fixtures::makeFigure1Dag();
  BalancedWeighter().assignWeights(Dag); // W = 3, two fillers per load.
  Schedule Sched = scheduleDag(Dag);
  EXPECT_EQ(Sched.NumVirtualNops, 0u);
}

TEST(ListSchedulerTest, DeterministicOutput) {
  DepDag Dag = fixtures::makeFigure7Dag();
  BalancedWeighter().assignWeights(Dag);
  Schedule A = scheduleDag(Dag);
  Schedule B = scheduleDag(Dag);
  EXPECT_EQ(A.Order, B.Order);
}

TEST(ListSchedulerTest, TieBreakPrefersEarliestGenerated) {
  // Three identical independent instructions: order preserved.
  DepDag Dag = fixtures::makeFigureDag({false, false, false}, {});
  TraditionalWeighter(2.0).assignWeights(Dag);
  Schedule Sched = scheduleDag(Dag);
  EXPECT_EQ(Sched.Order, (std::vector<unsigned>{0, 1, 2}));
}

TEST(ListSchedulerTest, IssueWidthTwoStillValid) {
  DepDag Dag = fixtures::makeFigure7Dag();
  BalancedWeighter().assignWeights(Dag);
  Schedule Sched = scheduleDag(Dag, {.IssueWidth = 2});
  EXPECT_TRUE(isValidSchedule(Dag, Sched));
}

TEST(ScheduleValidatorTest, RejectsBadOrders) {
  DepDag Dag = fixtures::makeFigureDag({false, false}, {{0, 1}});
  Schedule Wrong;
  Wrong.Order = {1, 0}; // Violates the edge.
  EXPECT_FALSE(isValidSchedule(Dag, Wrong));
  Wrong.Order = {0, 0}; // Duplicate.
  EXPECT_FALSE(isValidSchedule(Dag, Wrong));
  Wrong.Order = {0}; // Wrong size.
  EXPECT_FALSE(isValidSchedule(Dag, Wrong));
  Wrong.Order = {0, 5}; // Out of range.
  EXPECT_FALSE(isValidSchedule(Dag, Wrong));
}

TEST(ApplyScheduleTest, RewritesBlockAndKeepsTerminator) {
  Function F("f");
  BasicBlock &BB = F.addBlock("b");
  BB.append(Instruction::makeLoadImm(vi(0), 1));
  BB.append(Instruction::makeLoadImm(vi(1), 2));
  BB.append(Instruction::makeRet());
  DepDag Dag = buildDag(BB);
  Schedule Sched;
  Sched.Order = {1, 0};
  ASSERT_TRUE(isValidSchedule(Dag, Sched));
  applySchedule(BB, Dag, Sched);
  EXPECT_EQ(BB[0].imm(), 2);
  EXPECT_EQ(BB[1].imm(), 1);
  EXPECT_EQ(BB[2].opcode(), Opcode::Ret);
}

//===----------------------------------------------------------------------===
// Property tests: random programs
//===----------------------------------------------------------------------===

namespace {

/// Generates a random straight-line block: ALU ops over live registers,
/// loads and stores over a few alias classes.
BasicBlock makeRandomBlock(Rng &R, unsigned NumInstrs) {
  Function F("rand");
  BasicBlock &BB = F.addBlock("b");
  IrBuilder B(F, BB);

  std::vector<Reg> IntRegs{B.emitLoadImm(16), B.emitLoadImm(256)};
  std::vector<Reg> FpRegs{B.emitFLoadImm(1.5)};
  auto PickInt = [&] {
    return IntRegs[R.nextBounded(IntRegs.size())];
  };
  auto PickFp = [&] { return FpRegs[R.nextBounded(FpRegs.size())]; };

  for (unsigned I = 0; I != NumInstrs; ++I) {
    switch (R.nextBounded(8)) {
    case 0:
      IntRegs.push_back(B.emitLoad(PickInt(), R.nextBounded(4) * 8,
                                   static_cast<AliasClassId>(
                                       R.nextBounded(3))));
      break;
    case 1:
      FpRegs.push_back(B.emitFLoad(PickInt(), R.nextBounded(4) * 8,
                                   static_cast<AliasClassId>(
                                       R.nextBounded(3))));
      break;
    case 2:
      B.emitStore(PickInt(), PickInt(), R.nextBounded(4) * 8,
                  static_cast<AliasClassId>(R.nextBounded(3)));
      break;
    case 3:
      B.emitStore(PickFp(), PickInt(), R.nextBounded(4) * 8,
                  static_cast<AliasClassId>(R.nextBounded(3)));
      break;
    case 4:
      IntRegs.push_back(B.emitBinary(Opcode::Add, PickInt(), PickInt()));
      break;
    case 5:
      FpRegs.push_back(B.emitBinary(Opcode::FMul, PickFp(), PickFp()));
      break;
    case 6:
      IntRegs.push_back(B.emitBinaryImm(Opcode::AddI, PickInt(),
                                        R.nextBounded(64)));
      break;
    default:
      FpRegs.push_back(B.emitBinary(Opcode::FAdd, PickFp(), PickFp()));
      break;
    }
  }
  return BB;
}

/// All registers defined anywhere in the block.
std::vector<Reg> definedRegs(const BasicBlock &BB) {
  std::vector<Reg> Defs;
  for (const Instruction &I : BB)
    if (I.hasDest())
      Defs.push_back(I.dest());
  return Defs;
}

} // namespace

class SchedulerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerPropertyTest, SchedulingPreservesSemantics) {
  Rng R(GetParam());
  BasicBlock Original = makeRandomBlock(R, 40);
  DepDag Dag = buildDag(Original);

  for (bool Balanced : {false, true}) {
    if (Balanced)
      BalancedWeighter().assignWeights(Dag);
    else
      TraditionalWeighter(2.0).assignWeights(Dag);
    Schedule Sched = scheduleDag(Dag);
    ASSERT_TRUE(isValidSchedule(Dag, Sched));

    BasicBlock Rewritten = Original;
    applySchedule(Rewritten, Dag, Sched);

    Interpreter Before, After;
    Before.run(Original);
    After.run(Rewritten);
    EXPECT_EQ(Before.memoryImage(), After.memoryImage());
    for (Reg Def : definedRegs(Original)) {
      if (Def.regClass() == RegClass::Int)
        EXPECT_EQ(Before.getIntReg(Def), After.getIntReg(Def));
      else
        EXPECT_DOUBLE_EQ(Before.getFpReg(Def), After.getFpReg(Def));
    }
  }
}

TEST_P(SchedulerPropertyTest, BalancedWeightsAreSane) {
  Rng R(GetParam() ^ 0xABCDEF);
  BasicBlock BB = makeRandomBlock(R, 60);
  DepDag Dag = buildDag(BB);
  BalancedWeighter().assignWeights(Dag);

  unsigned N = Dag.size();
  for (unsigned I = 0; I != N; ++I) {
    if (!Dag.isLoad(I))
      continue;
    // Weight >= 1 (its own slot) and <= 1 + everything independent of it.
    EXPECT_GE(Dag.weight(I), 1.0);
    EXPECT_LE(Dag.weight(I), static_cast<double>(N));
  }
}

TEST_P(SchedulerPropertyTest, AverageEqualsMeanOfBalanced) {
  Rng R(GetParam() ^ 0x123456);
  BasicBlock BB = makeRandomBlock(R, 50);
  DepDag DagB = buildDag(BB);
  DepDag DagA = buildDag(BB);
  BalancedWeighter().assignWeights(DagB);
  AverageWeighter().assignWeights(DagA);

  double Sum = 0.0;
  unsigned NumLoads = 0;
  for (unsigned I = 0; I != DagB.size(); ++I) {
    if (!DagB.isLoad(I))
      continue;
    Sum += DagB.weight(I);
    ++NumLoads;
  }
  if (NumLoads == 0)
    return;
  double Mean = Sum / NumLoads;
  for (unsigned I = 0; I != DagA.size(); ++I) {
    if (DagA.isLoad(I)) {
      EXPECT_NEAR(DagA.weight(I), Mean, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SchedulerPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));
