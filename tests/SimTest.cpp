//===- tests/SimTest.cpp - Unit tests for the timing simulator ------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/IrBuilder.h"
#include "sim/MemorySystem.h"
#include "sim/Processor.h"
#include "sim/SimDraws.h"
#include "sim/Simulator.h"
#include "stats/Bootstrap.h"
#include "support/Statistics.h"

#include "CycleSteppedSimulator.h"
#include "ReferenceSimulator.h"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <limits>
#include <thread>

using namespace bsched;

namespace {
Reg vi(unsigned Id) { return Reg::makeVirtual(RegClass::Int, Id); }

/// lat-cycle load into a fresh reg, consumer right behind it.
BasicBlock loadThenUse() {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoad(Opcode::Load, vi(1), vi(0), 0, 0));
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, vi(2), vi(1), 1));
  return BB;
}
} // namespace

//===----------------------------------------------------------------------===
// Memory systems
//===----------------------------------------------------------------------===

TEST(MemorySystemTest, FixedAlwaysSame) {
  FixedSystem Mem(7);
  Rng R(1);
  for (int I = 0; I != 10; ++I)
    EXPECT_EQ(Mem.sampleLatency(R), 7u);
  EXPECT_DOUBLE_EQ(Mem.optimisticLatency(), 7.0);
  EXPECT_DOUBLE_EQ(Mem.effectiveLatency(), 7.0);
}

TEST(MemorySystemTest, CacheLatenciesAndRates) {
  CacheSystem Mem(0.8, 2, 5);
  Rng R(42);
  int Hits = 0;
  constexpr int N = 100000;
  for (int I = 0; I != N; ++I) {
    unsigned L = Mem.sampleLatency(R);
    EXPECT_TRUE(L == 2 || L == 5);
    Hits += L == 2;
  }
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.8, 0.01);
  EXPECT_DOUBLE_EQ(Mem.optimisticLatency(), 2.0);
  EXPECT_NEAR(Mem.effectiveLatency(), 2.6, 1e-12);
  EXPECT_EQ(Mem.name(), "L80(2,5)");
}

TEST(MemorySystemTest, PaperEffectiveLatencies) {
  // The "Optimistic Latency" rows of Table 2.
  EXPECT_NEAR(CacheSystem(0.8, 2, 10).effectiveLatency(), 3.6, 1e-12);
  EXPECT_NEAR(CacheSystem(0.95, 2, 5).effectiveLatency(), 2.15, 1e-12);
  EXPECT_NEAR(CacheSystem(0.95, 2, 10).effectiveLatency(), 2.4, 1e-12);
  EXPECT_NEAR(MixedSystem(0.8, 2, 30, 5).effectiveLatency(), 7.6, 1e-12);
}

TEST(MemorySystemTest, NetworkMomentsAndFloor) {
  NetworkSystem Mem(5.0, 2.0);
  Rng R(7);
  RunningStat S;
  for (int I = 0; I != 200000; ++I) {
    unsigned L = Mem.sampleLatency(R);
    EXPECT_GE(L, 1u);
    S.add(static_cast<double>(L));
  }
  EXPECT_NEAR(S.mean(), 5.0, 0.05);
  EXPECT_NEAR(S.stddev(), 2.0, 0.05);
  EXPECT_EQ(Mem.name(), "N(5,2)");
}

TEST(MemorySystemTest, NetworkClampingRaisesLowMeans) {
  // N(2,5) is heavily clamped at 1: its realized mean exceeds 2.
  NetworkSystem Mem(2.0, 5.0);
  Rng R(9);
  RunningStat S;
  for (int I = 0; I != 100000; ++I)
    S.add(static_cast<double>(Mem.sampleLatency(R)));
  EXPECT_GT(S.mean(), 2.5);
}

TEST(MemorySystemTest, MixedNameAndSampling) {
  MixedSystem Mem(0.8, 2, 30, 5);
  EXPECT_EQ(Mem.name(), "L80-N(30,5)");
  Rng R(3);
  int Hits = 0;
  constexpr int N = 50000;
  for (int I = 0; I != N; ++I)
    Hits += Mem.sampleLatency(R) == 2;
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.8, 0.02);
}

TEST(MemorySystemTest, RefusesLatenciesBelowOneCycle) {
  // Every memory system samples at least one cycle, which the simulator
  // relies on, so a hit or miss latency of 0 is refused at construction.
  EXPECT_DEATH(FixedSystem(0), "latency below one cycle");
  EXPECT_DEATH(CacheSystem(1.0, 0, 5), "hit latency below one cycle");
  EXPECT_DEATH(CacheSystem(0.0, 2, 0), "miss latency below one cycle");
  EXPECT_DEATH(MixedSystem(1.0, 0, 30, 5), "hit latency below one cycle");
  EXPECT_DEATH(MixedSystem(1.5, 2, 30, 5), "hit rate out of range");
}

TEST(MemorySystemTest, RefusesNonFiniteNetworkParameters) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(NetworkSystem(NaN, 5), "network mean not finite");
  EXPECT_DEATH(NetworkSystem(Inf, 5), "network mean not finite");
  EXPECT_DEATH(NetworkSystem(3, -1), "network stddev negative");
  EXPECT_DEATH(NetworkSystem(3, Inf), "network stddev negative");
  EXPECT_DEATH(NetworkSystem(3, NaN), "network stddev negative");
  EXPECT_DEATH(MixedSystem(0.8, 2, -Inf, 5), "network mean not finite");
  EXPECT_DEATH(MixedSystem(0.8, 2, 30, -5), "network stddev negative");
}

TEST(MemorySystemTest, NetworkSaturatesInsteadOfWrapping) {
  // A sample past UINT_MAX used to wrap in the conversion to unsigned
  // (N(5e9,0) sampled 705032704); it saturates.
  Rng R(11);
  EXPECT_EQ(NetworkSystem(5e9, 0).sampleLatency(R), UINT_MAX);
  EXPECT_EQ(NetworkSystem(1e300, 0).sampleLatency(R), UINT_MAX);
  EXPECT_EQ(NetworkSystem(4294967294.0, 0).sampleLatency(R), UINT_MAX - 1);
  EXPECT_EQ(MixedSystem(0.0, 2, 5e9, 0).sampleLatency(R), UINT_MAX);
  EXPECT_EQ(NetworkSystem(-1e300, 0).sampleLatency(R), 1u);

  // The paper's network systems sample max(1, round(N(mu, sigma))) as
  // before.
  for (auto [Mean, Stddev] : {std::pair(2.0, 2.0), std::pair(3.0, 5.0),
                              std::pair(30.0, 5.0), std::pair(2.5, 0.0)}) {
    const NetworkSystem Mem(Mean, Stddev);
    Rng Got(static_cast<uint64_t>(Mean * 1000 + Stddev)), Want = Got;
    for (int I = 0; I != 20000; ++I) {
      const long Rounded = std::lround(Mean + Stddev * Want.nextGaussian());
      ASSERT_EQ(Mem.sampleLatency(Got), static_cast<unsigned>(
                                            std::max(Rounded, 1L)))
          << Mem.name() << " sample " << I;
    }
  }
}

TEST(ProcessorModelTest, Names) {
  EXPECT_EQ(ProcessorModel::unlimited().name(), "UNLIMITED");
  EXPECT_EQ(ProcessorModel::maxOutstanding(8).name(), "MAX-8");
  EXPECT_EQ(ProcessorModel::maxLength(8).name(), "LEN-8");
}

//===----------------------------------------------------------------------===
// Simulator: interlock accounting
//===----------------------------------------------------------------------===

TEST(SimulatorTest, EmptyBlock) {
  BasicBlock BB("b");
  Rng R(1);
  BlockSimResult Res =
      simulateBlock(BB, ProcessorModel::unlimited(), FixedSystem(5), R);
  EXPECT_EQ(Res.Cycles, 0u);
  EXPECT_EQ(Res.Instructions, 0u);
}

TEST(SimulatorTest, StraightLineNoLoadsOneCyclePerInstruction) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 1));
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, vi(1), vi(0), 1));
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, vi(2), vi(1), 1));
  Rng R(1);
  BlockSimResult Res =
      simulateBlock(BB, ProcessorModel::unlimited(), FixedSystem(5), R);
  EXPECT_EQ(Res.Cycles, 3u);
  EXPECT_EQ(Res.Instructions, 3u);
  EXPECT_EQ(Res.InterlockCycles, 0u);
}

TEST(SimulatorTest, ConsumerStallsForLoadLatency) {
  BasicBlock BB = loadThenUse();
  Rng R(1);
  // Load at cycle 0 completes at 4; consumer issues at 4: 3 interlocks.
  BlockSimResult Res =
      simulateBlock(BB, ProcessorModel::unlimited(), FixedSystem(4), R);
  EXPECT_EQ(Res.Cycles, 5u);
  EXPECT_EQ(Res.Instructions, 2u);
  EXPECT_EQ(Res.InterlockCycles, 3u);
  EXPECT_NEAR(Res.interlockPercent(), 60.0, 1e-9);
}

TEST(SimulatorTest, IndependentWorkHidesLatency) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoad(Opcode::Load, vi(1), vi(0), 0, 0));
  for (unsigned I = 0; I != 3; ++I)
    BB.append(Instruction::makeLoadImm(vi(10 + I), I));
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, vi(2), vi(1), 1));
  Rng R(1);
  // Load completes at 4; fillers occupy cycles 1-3; consumer at 4.
  BlockSimResult Res =
      simulateBlock(BB, ProcessorModel::unlimited(), FixedSystem(4), R);
  EXPECT_EQ(Res.Cycles, 5u);
  EXPECT_EQ(Res.InterlockCycles, 0u);
}

TEST(SimulatorTest, NonBlockingLoadsOverlap) {
  // Two independent loads back to back, consumers afterwards: latencies
  // overlap rather than serialize.
  BasicBlock BB("b");
  BB.append(Instruction::makeLoad(Opcode::Load, vi(1), vi(0), 0, 0));
  BB.append(Instruction::makeLoad(Opcode::Load, vi(2), vi(0), 8, 0));
  BB.append(Instruction::makeBinary(Opcode::Add, vi(3), vi(1), vi(2)));
  Rng R(1);
  BlockSimResult Res =
      simulateBlock(BB, ProcessorModel::unlimited(), FixedSystem(10), R);
  // Loads at 0 and 1; both complete by 11; add at 11.
  EXPECT_EQ(Res.Cycles, 12u);
  EXPECT_EQ(Res.InterlockCycles, 9u);
}

TEST(SimulatorTest, UnusedLoadResultDoesNotStall) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoad(Opcode::Load, vi(1), vi(0), 0, 0));
  BB.append(Instruction::makeLoadImm(vi(2), 1));
  Rng R(1);
  BlockSimResult Res =
      simulateBlock(BB, ProcessorModel::unlimited(), FixedSystem(50), R);
  EXPECT_EQ(Res.Cycles, 2u); // No drain for the dangling load.
}

TEST(SimulatorTest, OpLatencyModelHonored) {
  BasicBlock BB("b");
  Reg F0 = Reg::makeVirtual(RegClass::Fp, 0);
  Reg F1 = Reg::makeVirtual(RegClass::Fp, 1);
  Reg F2 = Reg::makeVirtual(RegClass::Fp, 2);
  BB.append(Instruction::makeBinary(Opcode::FMul, F2, F0, F1));
  BB.append(Instruction::makeBinary(Opcode::FAdd, F0, F2, F1));
  Rng R(1);
  BlockSimResult Res =
      simulateBlock(BB, ProcessorModel::unlimited(), FixedSystem(2), R,
                    LatencyModel::withFpLatency(4.0));
  // FMul at 0 (result at 4), FAdd at 4.
  EXPECT_EQ(Res.Cycles, 5u);
  EXPECT_EQ(Res.InterlockCycles, 3u);
}

//===----------------------------------------------------------------------===
// Simulator: processor models
//===----------------------------------------------------------------------===

namespace {

/// N independent loads, then a consumer of the last one.
BasicBlock manyLoads(unsigned N) {
  BasicBlock BB("b");
  for (unsigned I = 0; I != N; ++I)
    BB.append(
        Instruction::makeLoad(Opcode::Load, vi(1 + I), vi(0), 8 * I, 0));
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, vi(100), vi(N), 1));
  return BB;
}

} // namespace

TEST(SimulatorTest, MaxOutstandingBlocksNinthLoad) {
  BasicBlock BB = manyLoads(9);
  Rng R1(1), R2(1);
  BlockSimResult Unl =
      simulateBlock(BB, ProcessorModel::unlimited(), FixedSystem(20), R1);
  BlockSimResult Max8 =
      simulateBlock(BB, ProcessorModel::maxOutstanding(8), FixedSystem(20),
                    R2);
  // UNLIMITED: loads at 0..8; last completes at 8+20=28; consumer at 28.
  EXPECT_EQ(Unl.Cycles, 29u);
  // MAX-8: the ninth load waits until the first completes (cycle 20);
  // it finishes at 40; consumer at 40.
  EXPECT_EQ(Max8.Cycles, 41u);
}

TEST(SimulatorTest, MaxOutstandingIdenticalWhenUnderLimit) {
  BasicBlock BB = manyLoads(4);
  Rng R1(5), R2(5);
  BlockSimResult A =
      simulateBlock(BB, ProcessorModel::unlimited(), FixedSystem(12), R1);
  BlockSimResult B =
      simulateBlock(BB, ProcessorModel::maxOutstanding(8), FixedSystem(12),
                    R2);
  EXPECT_EQ(A.Cycles, B.Cycles);
}

TEST(SimulatorTest, MaxLengthBlocksAfterLimitCycles) {
  // One 20-cycle load, then a stream of independent fillers. LEN-8 stalls
  // the whole pipeline from cycle 8 until the load returns at 20.
  BasicBlock BB("b");
  BB.append(Instruction::makeLoad(Opcode::Load, vi(1), vi(0), 0, 0));
  for (unsigned I = 0; I != 15; ++I)
    BB.append(Instruction::makeLoadImm(vi(10 + I), I));
  Rng R1(1), R2(1);
  BlockSimResult Unl =
      simulateBlock(BB, ProcessorModel::unlimited(), FixedSystem(20), R1);
  BlockSimResult Len8 =
      simulateBlock(BB, ProcessorModel::maxLength(8), FixedSystem(20), R2);
  // UNLIMITED: 16 instructions, no stalls.
  EXPECT_EQ(Unl.Cycles, 16u);
  // LEN-8: fillers at 1..7; blocked 8..19; remaining 8 fillers at 20..27.
  EXPECT_EQ(Len8.Cycles, 28u);
  EXPECT_EQ(Len8.InterlockCycles, 12u);
}

TEST(SimulatorTest, MaxLengthNoEffectOnShortLoads) {
  BasicBlock BB = loadThenUse();
  Rng R1(1), R2(1);
  BlockSimResult A =
      simulateBlock(BB, ProcessorModel::unlimited(), FixedSystem(5), R1);
  BlockSimResult B =
      simulateBlock(BB, ProcessorModel::maxLength(8), FixedSystem(5), R2);
  EXPECT_EQ(A.Cycles, B.Cycles);
}

TEST(SimulatorTest, SuperscalarIssueWidth) {
  // Four independent instructions, width 2: two cycles.
  BasicBlock BB("b");
  for (unsigned I = 0; I != 4; ++I)
    BB.append(Instruction::makeLoadImm(vi(I), I));
  Rng R(1);
  ProcessorModel P = ProcessorModel::unlimited();
  P.IssueWidth = 2;
  BlockSimResult Res = simulateBlock(BB, P, FixedSystem(2), R);
  EXPECT_EQ(Res.Cycles, 2u);
  EXPECT_EQ(Res.InterlockCycles, 0u);
}

TEST(SimulatorTest, DeterministicGivenSeed) {
  BasicBlock BB = manyLoads(6);
  CacheSystem Mem(0.8, 2, 10);
  Rng R1(99), R2(99);
  BlockSimResult A =
      simulateBlock(BB, ProcessorModel::unlimited(), Mem, R1);
  BlockSimResult B =
      simulateBlock(BB, ProcessorModel::unlimited(), Mem, R2);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.InterlockCycles, B.InterlockCycles);
}

TEST(SimulatorTest, VariabilityAcrossSeeds) {
  BasicBlock BB = manyLoads(6);
  NetworkSystem Mem(5, 5);
  RunningStat S;
  for (uint64_t Seed = 0; Seed != 64; ++Seed) {
    Rng R(Seed);
    S.add(static_cast<double>(
        simulateBlock(BB, ProcessorModel::unlimited(), Mem, R).Cycles));
  }
  EXPECT_GT(S.stddev(), 0.5); // Latency variance shows up in runtimes.
}

//===----------------------------------------------------------------------===
// Figure 3: interlocks of the Figure 2 schedules across latencies
//===----------------------------------------------------------------------===

namespace {

/// Builds a Figure 1 program as real IR in a given order.
/// Slots: L0 loads from a0, L1 loads from [L0's result], X4 consumes L1;
/// X0..X3 are independent fillers.
BasicBlock figure1Schedule(const std::vector<const char *> &Order) {
  BasicBlock BB("fig");
  for (const char *Name : Order) {
    std::string S(Name);
    if (S == "L0")
      BB.append(Instruction::makeLoad(Opcode::Load, vi(1), vi(0), 0, 0));
    else if (S == "L1")
      BB.append(Instruction::makeLoad(Opcode::Load, vi(2), vi(1), 0, 0));
    else if (S == "X4")
      BB.append(Instruction::makeBinaryImm(Opcode::AddI, vi(3), vi(2), 1));
    else // X0..X3 fillers.
      BB.append(Instruction::makeLoadImm(vi(10 + S[1]), 7));
  }
  return BB;
}

uint64_t interlocksAt(const BasicBlock &BB, unsigned Latency) {
  Rng R(1);
  return simulateBlock(BB, ProcessorModel::unlimited(),
                       FixedSystem(Latency), R)
      .InterlockCycles;
}

} // namespace

TEST(Figure3Test, BalancedBeatsGreedyAndLazyInMidRange) {
  BasicBlock Greedy = figure1Schedule(
      {"L0", "X0", "X1", "X2", "X3", "L1", "X4"}); // Figure 2a.
  BasicBlock Lazy = figure1Schedule(
      {"L0", "L1", "X0", "X1", "X2", "X3", "X4"}); // Figure 2b.
  BasicBlock Balanced = figure1Schedule(
      {"L0", "X0", "X1", "L1", "X2", "X3", "X4"}); // Figure 2c.

  // Latency 1: schedules are equivalent (no interlocks anywhere).
  EXPECT_EQ(interlocksAt(Greedy, 1), 0u);
  EXPECT_EQ(interlocksAt(Lazy, 1), 0u);
  EXPECT_EQ(interlocksAt(Balanced, 1), 0u);

  // Latencies 2-4: balanced strictly better than both (Figure 3).
  for (unsigned Lat = 2; Lat <= 4; ++Lat) {
    uint64_t B = interlocksAt(Balanced, Lat);
    EXPECT_LT(B, interlocksAt(Greedy, Lat)) << Lat;
    EXPECT_LT(B, interlocksAt(Lazy, Lat)) << Lat;
  }

  // Large latencies: all equivalent again (asymptotically dominated by
  // the serial load chain).
  EXPECT_EQ(interlocksAt(Balanced, 12), interlocksAt(Greedy, 12));
}

//===----------------------------------------------------------------------===
// Differential: simulateBlock and DecodedBlock against the test-only
// reference simulator
//===----------------------------------------------------------------------===

namespace {

/// A register for a random block: mostly one of a dozen ids, so sources
/// usually read an earlier definition, sometimes an id at or past the
/// 1024 boundary of a validated register file (and far past it).
Reg randomReg(Rng &G, RegClass RC, bool Physical) {
  static constexpr unsigned WideIds[] = {1023, 1024, 5000, 1u << 20,
                                         (1u << 29) - 1};
  unsigned Id = G.nextBounded(8) != 0
                    ? static_cast<unsigned>(G.nextBounded(12))
                    : WideIds[G.nextBounded(std::size(WideIds))];
  return Physical ? Reg::makePhysical(RC, Id) : Reg::makeVirtual(RC, Id);
}

/// A random block of up to 60 instructions: int and fp loads (some with a
/// known latency) and stores, int and fp arithmetic, and sometimes a
/// terminator. A per-block load share of up to 90% lets long-latency
/// memory systems keep more than 16 loads in flight.
BasicBlock randomSimBlock(Rng &G) {
  BasicBlock BB("rand");
  const unsigned Size = static_cast<unsigned>(G.nextBounded(61));
  const double LoadShare = 0.1 + 0.8 * G.nextDouble();
  // Per block: all virtual, all physical, or a mix.
  const unsigned RegMode = static_cast<unsigned>(G.nextBounded(3));
  auto R = [&](RegClass RC) {
    bool Physical = RegMode == 2 ? G.nextBernoulli(0.5) : RegMode == 1;
    return randomReg(G, RC, Physical);
  };
  const RegClass I = RegClass::Int, F = RegClass::Fp;
  for (unsigned K = 0; K != Size; ++K) {
    if (K + 1 == Size && G.nextBernoulli(0.3)) {
      BB.append(G.nextBernoulli(0.5)
                    ? Instruction::makeRet()
                    : Instruction::makeBranch(Opcode::BranchNotZero, R(I), 0));
      break;
    }
    if (G.nextBernoulli(LoadShare)) {
      bool Fp = G.nextBernoulli(0.5);
      Instruction L = Instruction::makeLoad(Fp ? Opcode::FLoad : Opcode::Load,
                                            R(Fp ? F : I), R(I), 8 * K, 0);
      if (G.nextBernoulli(0.2))
        L.setKnownLatency(1 + static_cast<unsigned>(G.nextBounded(12)));
      BB.append(L);
      continue;
    }
    switch (G.nextBounded(12)) {
    case 0:
      BB.append(Instruction::makeStore(Opcode::Store, R(I), R(I), 8 * K, 0));
      break;
    case 1:
      BB.append(Instruction::makeStore(Opcode::FStore, R(F), R(I), 8 * K, 0));
      break;
    case 2:
      BB.append(Instruction::makeBinary(Opcode::Add, R(I), R(I), R(I)));
      break;
    case 3:
      BB.append(Instruction::makeBinary(Opcode::Mul, R(I), R(I), R(I)));
      break;
    case 4:
      BB.append(Instruction::makeBinaryImm(Opcode::AddI, R(I), R(I), 1));
      break;
    case 5:
      BB.append(Instruction::makeLoadImm(R(I), K));
      break;
    case 6:
      BB.append(Instruction::makeBinary(Opcode::FAdd, R(F), R(F), R(F)));
      break;
    case 7:
      BB.append(Instruction::makeBinary(Opcode::FMul, R(F), R(F), R(F)));
      break;
    case 8:
      BB.append(Instruction::makeFMadd(R(F), R(F), R(F), R(F)));
      break;
    case 9:
      BB.append(Instruction::makeUnary(Opcode::CvtIF, R(F), R(I)));
      break;
    case 10:
      BB.append(Instruction::makeBinary(Opcode::FSlt, R(I), R(F), R(F)));
      break;
    default:
      BB.append(Instruction::makeNop());
      break;
    }
  }
  return BB;
}

} // namespace

TEST(SimulatorDifferentialTest, MatchesReferenceOnRandomBlocks) {
  const std::vector<ProcessorModel> Processors = {
      ProcessorModel::unlimited(),         ProcessorModel::maxOutstanding(1),
      ProcessorModel::maxOutstanding(2),   ProcessorModel::maxOutstanding(8),
      ProcessorModel::maxLength(1),        ProcessorModel::maxLength(2),
      ProcessorModel::maxLength(8)};
  const unsigned Widths[] = {1, 2, 4};
  const FixedSystem Fixed(3);
  const CacheSystem L80(0.8, 2, 10);
  const NetworkSystem N3(3, 5), N30(30, 5);
  const MixedSystem L80N30(0.8, 2, 30, 5);
  const MemorySystem *Memories[] = {&Fixed, &L80, &N3, &N30, &L80N30};
  LatencyModel HalfCycles; // llround's half case rounds away from zero.
  HalfCycles.setOpLatency(Opcode::FAdd, 2.5);
  HalfCycles.setOpLatency(Opcode::Mul, 1.5);
  HalfCycles.setOpLatency(Opcode::CvtIF, 3.49);
  const LatencyModel Models[] = {LatencyModel(),
                                 LatencyModel::withFpLatency(4), HalfCycles};

  const unsigned NumCombos = static_cast<unsigned>(
      Processors.size() * std::size(Widths) * std::size(Memories) *
      std::size(Models));
  constexpr unsigned BlocksPerCombo = 16;
  constexpr unsigned RunsPerBlock = 3;
  // runAll's run counts: fewer runs than one side-by-side lane group,
  // the paper's 30, and more than two groups.
  constexpr unsigned AllRunCounts[] = {3, 30, 37};

  // Registry gets simulateBlock's metrics (decode plus one run per call);
  // DecodedRegistry those of one decode run RunsPerBlock times, as the
  // experiment harness does; AllRegistry those of runAll, against
  // RefAllRegistry.
  MetricRegistry RefRegistry, Registry, DecodedRegistry, RefAllRegistry,
      AllRegistry;
  ReferenceSimInstruments RefObs(RefRegistry), RefAllObs(RefAllRegistry);
  DecodedBlock Decoded;
  std::vector<unsigned> LoadMajor;
  std::vector<BlockSimResult> WantAll, GotAll;
  Rng G(0x51D1FF);
  unsigned EmptyBlocks = 0, SideBySideBlocks = 0;
  for (unsigned Block = 0; Block != NumCombos * BlocksPerCombo; ++Block) {
    unsigned Combo = Block % NumCombos;
    ProcessorModel P = Processors[Combo % Processors.size()];
    Combo /= static_cast<unsigned>(Processors.size());
    P.IssueWidth = Widths[Combo % std::size(Widths)];
    Combo /= static_cast<unsigned>(std::size(Widths));
    const MemorySystem &Mem = *Memories[Combo % std::size(Memories)];
    Combo /= static_cast<unsigned>(std::size(Memories));
    const LatencyModel &Ops = Models[Combo];

    BasicBlock BB = randomSimBlock(G);
    EmptyBlocks += BB.empty();
    // One instruments object per block: each folds into its registry
    // when it goes out of scope, as one per simulation does in the engine.
    SimInstruments Obs(Registry), DecodedObs(DecodedRegistry);
    Decoded.decode(BB, Ops);
    for (unsigned Run = 0; Run != RunsPerBlock; ++Run) {
      const uint64_t Seed = Block * 31 + Run;
      Rng RefR(Seed), R(Seed), DecodedR(Seed), UnobservedR(Seed);
      BlockSimResult Want =
          referenceSimulateBlock(BB, P, Mem, RefR, Ops, &RefObs);
      for (auto [Got, Stream] :
           {std::pair(simulateBlock(BB, P, Mem, R, Ops, &Obs), &R),
            std::pair(Decoded.run(P, Mem, DecodedR, &DecodedObs),
                      &DecodedR),
            std::pair(Decoded.run(P, Mem, UnobservedR), &UnobservedR)}) {
        ASSERT_EQ(Got.Cycles, Want.Cycles)
            << "block " << Block << " run " << Run << " on " << P.name()
            << " width " << P.IssueWidth << " " << Mem.name();
        ASSERT_EQ(Got.InterlockCycles, Want.InterlockCycles) << Block;
        ASSERT_EQ(Got.Instructions, Want.Instructions) << Block;
        // Both consumed the same number of latency draws.
        Rng RefAfter = RefR;
        ASSERT_EQ(Stream->nextUInt64(), RefAfter.nextUInt64()) << Block;
      }
    }

    // All of the block's runs at once from one load-major array, as the
    // experiment harness simulates a block: unobserved, which runs side
    // by side on single-issue UNLIMITED, and observed.
    const unsigned Runs = AllRunCounts[Block / NumCombos % 3];
    const size_t Loads = Decoded.sampledLoads();
    LoadMajor.assign(Loads * Runs, 0);
    WantAll.clear();
    for (unsigned Run = 0; Run != Runs; ++Run) {
      const uint64_t Seed = Block * 131 + Run;
      Rng Draws(Seed), RefR(Seed);
      for (size_t K = 0; K != Loads; ++K)
        LoadMajor[K * Runs + Run] = Mem.sampleLatency(Draws);
      WantAll.push_back(
          referenceSimulateBlock(BB, P, Mem, RefR, Ops, &RefAllObs));
    }
    SimInstruments AllObs(AllRegistry);
    for (SimInstruments *Instruments :
         {static_cast<SimInstruments *>(nullptr), &AllObs}) {
      GotAll.assign(Runs, BlockSimResult());
      Decoded.runAll(P, LoadMajor, GotAll, Instruments);
      for (unsigned Run = 0; Run != Runs; ++Run) {
        ASSERT_EQ(GotAll[Run].Cycles, WantAll[Run].Cycles)
            << "block " << Block << " run " << Run << " of " << Runs
            << " on " << P.name() << " width " << P.IssueWidth << " "
            << Mem.name() << (Instruments ? ", observed" : "");
        ASSERT_EQ(GotAll[Run].InterlockCycles, WantAll[Run].InterlockCycles)
            << Block;
        ASSERT_EQ(GotAll[Run].Instructions, WantAll[Run].Instructions)
            << Block;
      }
    }
    SideBySideBlocks +=
        P.Kind == ProcessorKind::Unlimited && P.IssueWidth == 1;
  }
  EXPECT_GT(EmptyBlocks, 0u);
  EXPECT_GT(SideBySideBlocks, 3 * std::size(AllRunCounts));

  MetricSnapshot WantSnapshot = RefRegistry.snapshot();
  for (const MetricRegistry *Reg : {&Registry, &DecodedRegistry}) {
    MetricSnapshot GotSnapshot = Reg->snapshot();
    EXPECT_EQ(GotSnapshot.toJson(), WantSnapshot.toJson());
    EXPECT_TRUE(GotSnapshot == WantSnapshot);
  }
  EXPECT_TRUE(AllRegistry.snapshot() == RefAllRegistry.snapshot());
  // Some load issued with more than 16 loads in flight.
  EXPECT_GT(WantSnapshot.Histograms.at("bsched.sim.outstanding_loads").Max,
            16u);
  EXPECT_EQ(WantSnapshot.Counters.at("bsched.sim.block_runs"),
            uint64_t(NumCombos) * BlocksPerCombo * RunsPerBlock -
                uint64_t(EmptyBlocks) * RunsPerBlock);
}

TEST(SimulatorDifferentialTest, MatchesReferenceBeyondTheByValueTally) {
  // SimInstruments counts a histogram sample below 256 by value and
  // records a larger one as it comes; together they must fold to what
  // the reference's per-sample recording gives. Latencies of a few
  // hundred cycles, alone and mixed with short ones in one histogram,
  // and a block with more than 256 loads in flight take both histograms
  // past the by-value table. Latencies near 2^30 take a chain of loads
  // past 2^31 cycles, which side-by-side lanes cannot hold: runAll must
  // send those runs to the per-run loop.
  const FixedSystem Fixed(300), Huge((1u << 30) + 3);
  const CacheSystem Straddle(0.5, 2, 400);
  const NetworkSystem Wide(250, 30);
  const MemorySystem *Memories[] = {&Fixed, &Straddle, &Wide, &Huge};
  const ProcessorModel Processors[] = {ProcessorModel::unlimited(),
                                       ProcessorModel::maxOutstanding(300),
                                       ProcessorModel::maxLength(280)};

  // 320 independent loads, one issued per cycle.
  BasicBlock Burst("burst");
  const Reg Base = Reg::makeVirtual(RegClass::Int, 0);
  for (unsigned K = 0; K != 320; ++K)
    Burst.append(Instruction::makeLoad(
        Opcode::FLoad, Reg::makeVirtual(RegClass::Fp, K + 1), Base, 8 * K, 0));
  // Three loads, each addressed by the one before it, and a use.
  BasicBlock Chain("chain");
  for (unsigned K = 0; K != 3; ++K)
    Chain.append(Instruction::makeLoad(Opcode::Load, vi(K + 1), vi(K), 0, 0));
  Chain.append(Instruction::makeBinaryImm(Opcode::AddI, vi(4), vi(3), 1));

  constexpr unsigned Runs = 30;
  MetricRegistry RefRegistry, Registry;
  ReferenceSimInstruments RefObs(RefRegistry);
  DecodedBlock Decoded;
  std::vector<unsigned> LoadMajor;
  std::vector<BlockSimResult> All(Runs);
  Rng G(0xB16B10C);
  unsigned Block = 0;
  uint64_t MaxCycles = 0;
  for (const MemorySystem *Mem : Memories)
    for (const ProcessorModel &P : Processors)
      for (unsigned K = 0; K != 5; ++K, ++Block) {
        const BasicBlock BB =
            K == 0 ? Burst : K == 1 ? Chain : randomSimBlock(G);
        SimInstruments Obs(Registry);
        Decoded.decode(BB, LatencyModel());
        const size_t Loads = Decoded.sampledLoads();
        LoadMajor.assign(Loads * Runs, 0);
        std::vector<BlockSimResult> Want;
        for (unsigned Run = 0; Run != Runs; ++Run) {
          const uint64_t Seed = Block * 31 + Run;
          Rng RefR(Seed), R(Seed), Draws(Seed);
          for (size_t L = 0; L != Loads; ++L)
            LoadMajor[L * Runs + Run] = Mem->sampleLatency(Draws);
          Want.push_back(referenceSimulateBlock(
              BB, P, *Mem, RefR, LatencyModel(), Run < 3 ? &RefObs : nullptr));
          MaxCycles = std::max(MaxCycles, Want.back().Cycles);
          if (Run >= 3)
            continue;
          BlockSimResult Got = Decoded.run(P, *Mem, R, &Obs);
          ASSERT_EQ(Got.Cycles, Want[Run].Cycles)
              << "block " << Block << " run " << Run << " on " << P.name()
              << " " << Mem->name();
          ASSERT_EQ(Got.InterlockCycles, Want[Run].InterlockCycles) << Block;
          ASSERT_EQ(Got.Instructions, Want[Run].Instructions) << Block;
        }
        Decoded.runAll(P, LoadMajor, All);
        for (unsigned Run = 0; Run != Runs; ++Run) {
          ASSERT_EQ(All[Run].Cycles, Want[Run].Cycles)
              << "block " << Block << " run " << Run << " of all on "
              << P.name() << " " << Mem->name();
          ASSERT_EQ(All[Run].InterlockCycles, Want[Run].InterlockCycles)
              << Block;
        }
      }
  EXPECT_GT(MaxCycles, uint64_t(3) << 30);

  MetricSnapshot Want = RefRegistry.snapshot(), Got = Registry.snapshot();
  EXPECT_EQ(Got.toJson(), Want.toJson());
  EXPECT_TRUE(Got == Want);
  for (const char *Name :
       {"bsched.sim.load_latency_cycles", "bsched.sim.outstanding_loads"}) {
    const HistogramData &H = Want.Histograms.at(Name);
    EXPECT_LT(H.Min, 256u) << Name;
    EXPECT_GT(H.Max, 256u) << Name;
  }
}

//===----------------------------------------------------------------------===
// A run is a function of its draws
//===----------------------------------------------------------------------===

TEST(SimulatorTest, KthSampledLoadTakesKthLatency) {
  // Two sampled loads around a known-latency one, all feeding one add:
  // the known load takes no latency from the array, and the sampled ones
  // take theirs in block order.
  BasicBlock BB("b");
  BB.append(Instruction::makeLoad(Opcode::Load, vi(1), vi(0), 0, 0));
  Instruction Known = Instruction::makeLoad(Opcode::Load, vi(2), vi(0), 8, 0);
  Known.setKnownLatency(2);
  BB.append(Known);
  BB.append(Instruction::makeLoad(Opcode::Load, vi(3), vi(0), 16, 0));
  BB.append(Instruction::makeBinary(Opcode::Add, vi(4), vi(1), vi(3)));
  DecodedBlock Decoded;
  Decoded.decode(BB, LatencyModel());
  ASSERT_EQ(Decoded.sampledLoads(), 2u);
  const unsigned Slow[] = {10, 3}, Late[] = {3, 10};
  // The add waits for the load at cycle 0 + 10, or at cycle 2 + 10.
  EXPECT_EQ(Decoded.run(ProcessorModel::unlimited(), Slow).Cycles, 11u);
  EXPECT_EQ(Decoded.run(ProcessorModel::unlimited(), Late).Cycles, 13u);
}

TEST(SimulatorTest, LatencyArrayRunMatchesDrawingRun) {
  // DecodedBlock::run given the latencies its (Memory, Rng) form draws
  // gives the same result and the same instruments, on random blocks
  // whose known-latency loads take no draw, on every processor model.
  const ProcessorModel Processors[] = {ProcessorModel::unlimited(),
                                       ProcessorModel::maxOutstanding(2),
                                       ProcessorModel::maxLength(2)};
  const CacheSystem L80(0.8, 2, 10);
  const NetworkSystem N3(3, 5);
  const MixedSystem L80N30(0.8, 2, 30, 5);
  const MemorySystem *Memories[] = {&L80, &N3, &L80N30};

  MetricRegistry DrawingRegistry, GivenRegistry;
  DecodedBlock Decoded;
  Rng G(0xD2A5);
  unsigned KnownLoads = 0, SampledLoads = 0;
  for (unsigned Block = 0; Block != 450; ++Block) {
    const ProcessorModel &P = Processors[Block % 3];
    const MemorySystem &Mem = *Memories[Block / 3 % 3];
    const BasicBlock BB = randomSimBlock(G);
    unsigned Sampled = 0;
    for (const Instruction &I : BB)
      if (I.isLoad())
        ++(I.hasKnownLatency() ? KnownLoads : Sampled);
    SampledLoads += Sampled;
    Decoded.decode(BB, LatencyModel());
    ASSERT_EQ(Decoded.sampledLoads(), Sampled) << Block;

    SimInstruments DrawingObs(DrawingRegistry), GivenObs(GivenRegistry);
    for (unsigned Run = 0; Run != 3; ++Run) {
      Rng R(Block * 31 + Run), Copy = R;
      std::vector<unsigned> Latencies;
      for (unsigned K = 0; K != Sampled; ++K)
        Latencies.push_back(Mem.sampleLatency(Copy));
      BlockSimResult Want = Decoded.run(P, Mem, R, &DrawingObs);
      BlockSimResult Got = Decoded.run(P, Latencies, &GivenObs);
      ASSERT_EQ(Got.Cycles, Want.Cycles)
          << "block " << Block << " run " << Run << " on " << P.name();
      ASSERT_EQ(Got.InterlockCycles, Want.InterlockCycles) << Block;
      ASSERT_EQ(Got.Instructions, Want.Instructions) << Block;
      // The drawing run took exactly one draw per sampled load.
      ASSERT_EQ(R.nextUInt64(), Copy.nextUInt64()) << Block;
    }
  }
  EXPECT_GT(KnownLoads, 0u);
  EXPECT_GT(SampledLoads, KnownLoads);
  EXPECT_TRUE(GivenRegistry.snapshot() == DrawingRegistry.snapshot());
}

TEST(SimDrawsTest, HandsOutTheDrawsOfFreshStreams) {
  // Whatever order blocks ask in, and however a stream grew, the table
  // hands out the first draws of each (seed, block, run) stream and the
  // bootstrap indices of each (seed, block) stream. Two memory systems
  // with equal parameters draw equal values from separate streams.
  const NetworkSystem NetA(3, 5), NetB(3, 5);
  const CacheSystem L80(0.8, 2, 10);
  constexpr unsigned Runs = 4, Resamples = 7;
  SimDraws Table;
  SimDraws::BlockDraws Out;
  struct Ask {
    const MemorySystem *Memory;
    uint64_t Seed;
    unsigned Block;
    size_t Loads;
  };
  // Growing, shrinking and repeated lengths; a block without sampled
  // loads; two seeds and three memory systems.
  const Ask Asks[] = {{&NetA, 1, 0, 5}, {&NetA, 1, 0, 9},  {&NetA, 1, 0, 3},
                      {&NetB, 1, 0, 9}, {&L80, 1, 0, 4},   {&L80, 2, 0, 4},
                      {&NetA, 1, 2, 0}, {&NetA, 2, 2, 12}, {&NetA, 1, 0, 9}};
  for (const Ask &A : Asks) {
    Table.draw(*A.Memory, A.Seed, A.Block, Runs, Resamples, A.Loads, Out);
    ASSERT_EQ(Out.Latencies.size(), Runs * A.Loads);
    for (unsigned Run = 0; Run != Runs; ++Run) {
      Rng R = SimDraws::latencyStream(A.Seed, A.Block, Run);
      for (size_t K = 0; K != A.Loads; ++K)
        ASSERT_EQ(Out.Latencies[K * Runs + Run], A.Memory->sampleLatency(R))
            << A.Memory->name() << " seed " << A.Seed << " block " << A.Block
            << " run " << Run << " load " << K;
    }
    Rng Boot = SimDraws::bootstrapStream(A.Seed, A.Block);
    const std::vector<uint32_t> Want = bootstrapIndices(Runs, Resamples, Boot);
    EXPECT_TRUE(std::equal(Out.BootIndices.begin(), Out.BootIndices.end(),
                           Want.begin(), Want.end()));
  }
}

TEST(SimDrawsTest, ViewsStayValidWhileStreamsGrow) {
  // Four threads ask one stream for ever more loads, so it grows under
  // them, and after each ask re-read every view they already hold. A
  // view must keep the first draws of each run's fresh stream: the table
  // never writes storage it has handed out. (The tsan preset runs this.)
  const NetworkSystem Net(30, 5);
  constexpr unsigned Runs = 30, Resamples = 4, Threads = 4, Asks = 24;
  constexpr size_t MaxLoads = Threads * Asks;
  std::vector<unsigned> Want(MaxLoads * Runs);
  for (unsigned Run = 0; Run != Runs; ++Run) {
    Rng R = SimDraws::latencyStream(7, 3, Run);
    for (size_t K = 0; K != MaxLoads; ++K)
      Want[K * Runs + Run] = Net.sampleLatency(R);
  }

  SimDraws Table;
  std::vector<std::string> Failures(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      std::vector<SimDraws::BlockDraws> Held;
      for (unsigned Ask = 0; Ask != Asks; ++Ask) {
        const size_t Loads = Ask * Threads + T + 1;
        Table.draw(Net, 7, 3, Runs, Resamples, Loads, Held.emplace_back());
        for (const SimDraws::BlockDraws &View : Held)
          if (!std::equal(View.Latencies.begin(), View.Latencies.end(),
                          Want.begin()) ||
              View.BootIndices.size() != size_t(Runs) * Resamples) {
            Failures[T] = "a view of " +
                          std::to_string(View.Latencies.size() / Runs) +
                          " loads changed by ask " + std::to_string(Ask);
            return;
          }
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (unsigned T = 0; T != Threads; ++T)
    EXPECT_EQ(Failures[T], "") << "thread " << T;
}

//===----------------------------------------------------------------------===
// Differential: every simulator path against the cycle-stepped model
//===----------------------------------------------------------------------===

TEST(SimulatorDifferentialTest, MatchesCycleSteppedModel) {
  // The cycle-stepped model (tests/CycleSteppedSimulator.cpp) checks the
  // issue conditions cycle by cycle, with none of the loops' shortcuts:
  // LEN-n's running maximum of overdue completions, MAX-n's completion
  // heap, the side-by-side lanes. Every path must agree with it.
  const ProcessorModel Processors[] = {
      ProcessorModel::unlimited(),       ProcessorModel::maxOutstanding(1),
      ProcessorModel::maxOutstanding(2), ProcessorModel::maxOutstanding(8),
      ProcessorModel::maxLength(1),      ProcessorModel::maxLength(2),
      ProcessorModel::maxLength(8)};
  const unsigned Widths[] = {1, 2, 4};
  const FixedSystem Fixed(3);
  const CacheSystem L80(0.8, 2, 10);
  const NetworkSystem N3(3, 5), N30(30, 5);
  const MixedSystem L80N30(0.8, 2, 30, 5);
  const MemorySystem *Memories[] = {&Fixed, &L80, &N3, &N30, &L80N30};
  constexpr unsigned AllRunCounts[] = {3, 30, 37};

  MetricRegistry Registry;
  DecodedBlock Decoded;
  std::vector<unsigned> LoadMajor;
  std::vector<BlockSimResult> All;
  Rng G(0xC1C1E);
  unsigned Compared = 0;
  for (unsigned Round = 0; Round != 8; ++Round)
    for (const ProcessorModel &Model : Processors)
      for (unsigned Width : Widths)
        for (const MemorySystem *Mem : Memories) {
          ProcessorModel P = Model;
          P.IssueWidth = Width;
          const BasicBlock BB = randomSimBlock(G);
          Decoded.decode(BB, LatencyModel());
          const size_t Loads = Decoded.sampledLoads();
          const unsigned Runs = AllRunCounts[Round % 3];
          LoadMajor.assign(Loads * Runs, 0);
          for (size_t K = 0; K != LoadMajor.size(); ++K)
            LoadMajor[K] = Mem->sampleLatency(G);
          SimInstruments Obs(Registry);
          All.assign(Runs, BlockSimResult());
          Decoded.runAll(P, LoadMajor, All);
          std::vector<unsigned> Latencies(Loads);
          for (unsigned Run = 0; Run != Runs; ++Run) {
            for (size_t K = 0; K != Loads; ++K)
              Latencies[K] = LoadMajor[K * Runs + Run];
            const BlockSimResult Want =
                cycleSteppedSimulateBlock(BB, P, Latencies);
            const BlockSimResult Paths[] = {Decoded.run(P, Latencies),
                                            Decoded.run(P, Latencies, &Obs),
                                            All[Run]};
            for (const BlockSimResult &Got : Paths) {
              ASSERT_EQ(Got.Cycles, Want.Cycles)
                  << "round " << Round << " run " << Run << " of " << Runs
                  << " on " << P.name() << " width " << P.IssueWidth << " "
                  << Mem->name() << " (path " << (&Got - Paths) << ")";
              ASSERT_EQ(Got.InterlockCycles, Want.InterlockCycles);
              ASSERT_EQ(Got.Instructions, Want.Instructions);
            }
            ++Compared;
          }
        }
  EXPECT_GT(Compared, 10000u);
}

TEST(SimulatorTest, UnlimitedRunsLieInTheirLatencyEnvelope) {
  // On UNLIMITED a step issues at the max of the step before it (plus a
  // cycle once its slots are full) and its sources' ready cycles, so
  // cycles never fall when one load's latency rises. Every run on a cache
  // therefore lies between the run with every sampled load hitting and
  // the run with every one missing, on every path and issue width.
  struct Envelope {
    unsigned Hit, Miss;
  };
  const Envelope Envelopes[] = {{2, 10}, {1, 40}};
  constexpr unsigned Runs = 30;
  DecodedBlock Decoded;
  std::vector<unsigned> LoadMajor, Latencies;
  std::vector<BlockSimResult> All(Runs);
  Rng G(0xE7E10);
  unsigned Strict = 0;
  for (unsigned Block = 0; Block != 600; ++Block) {
    const Envelope &E = Envelopes[Block % 2];
    const CacheSystem Mem(0.8, E.Hit, E.Miss);
    ProcessorModel P = ProcessorModel::unlimited();
    P.IssueWidth = 1u << (Block / 2 % 3);
    const BasicBlock BB = randomSimBlock(G);
    Decoded.decode(BB, LatencyModel());
    const size_t Loads = Decoded.sampledLoads();
    const uint64_t Best =
        Decoded.run(P, std::vector<unsigned>(Loads, E.Hit)).Cycles;
    const uint64_t Worst =
        Decoded.run(P, std::vector<unsigned>(Loads, E.Miss)).Cycles;
    Strict += Best < Worst;
    LoadMajor.assign(Loads * Runs, 0);
    for (unsigned &Latency : LoadMajor)
      Latency = Mem.sampleLatency(G);
    Decoded.runAll(P, LoadMajor, All);
    Latencies.resize(Loads);
    for (unsigned Run = 0; Run != Runs; ++Run) {
      ASSERT_GE(All[Run].Cycles, Best) << "block " << Block << " run " << Run;
      ASSERT_LE(All[Run].Cycles, Worst) << "block " << Block << " run " << Run;
      if (Loads == 0)
        continue;
      // One load's latency rises: the run's cycles do not fall.
      for (size_t K = 0; K != Loads; ++K)
        Latencies[K] = LoadMajor[K * Runs + Run];
      const size_t Raised = G.nextBounded(Loads);
      Latencies[Raised] += 1 + static_cast<unsigned>(G.nextBounded(20));
      ASSERT_GE(Decoded.run(P, Latencies).Cycles, All[Run].Cycles)
          << "block " << Block << " run " << Run << " load " << Raised;
    }
  }
  EXPECT_GT(Strict, 100u);
}
