//===- tests/SimTest.cpp - Unit tests for the timing simulator ------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/IrBuilder.h"
#include "sim/MemorySystem.h"
#include "sim/Processor.h"
#include "sim/Simulator.h"
#include "support/Statistics.h"

#include "ReferenceSimulator.h"

#include <gtest/gtest.h>

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

  // Registry gets simulateBlock's metrics (decode plus one run per call);
  // DecodedRegistry those of one decode run RunsPerBlock times, as the
  // experiment harness does.
  MetricRegistry RefRegistry, Registry, DecodedRegistry;
  ReferenceSimInstruments RefObs(RefRegistry);
  DecodedBlock Decoded;
  Rng G(0x51D1FF);
  unsigned EmptyBlocks = 0;
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
      Rng RefR(Seed), R(Seed), DecodedR(Seed);
      BlockSimResult Want =
          referenceSimulateBlock(BB, P, Mem, RefR, Ops, &RefObs);
      for (auto [Got, Stream] :
           {std::pair(simulateBlock(BB, P, Mem, R, Ops, &Obs), &R),
            std::pair(Decoded.run(P, Mem, DecodedR, &DecodedObs),
                      &DecodedR)}) {
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
  }
  EXPECT_GT(EmptyBlocks, 0u);

  MetricSnapshot Want = RefRegistry.snapshot();
  for (const MetricRegistry *Reg : {&Registry, &DecodedRegistry}) {
    MetricSnapshot Got = Reg->snapshot();
    EXPECT_EQ(Got.toJson(), Want.toJson());
    EXPECT_TRUE(Got == Want);
  }
#ifndef BSCHED_NO_OBS
  // Some load issued with more than 16 loads in flight, so the in-flight
  // list's prune ran.
  EXPECT_GT(Want.Histograms.at("bsched.sim.outstanding_loads").Max, 16u);
  EXPECT_EQ(Want.Counters.at("bsched.sim.block_runs"),
            uint64_t(NumCombos) * BlocksPerCombo * RunsPerBlock -
                uint64_t(EmptyBlocks) * RunsPerBlock);
#endif
}

TEST(SimulatorDifferentialTest, MatchesReferenceBeyondTheByValueTally) {
  // SimInstruments counts a histogram sample below 256 by value and
  // records a larger one as it comes; together they must fold to what
  // the reference's per-sample recording gives. Latencies of a few
  // hundred cycles, alone and mixed with short ones in one histogram,
  // and a block with more than 256 loads in flight take both histograms
  // past the by-value table.
  const FixedSystem Fixed(300);
  const CacheSystem Straddle(0.5, 2, 400);
  const NetworkSystem Wide(250, 30);
  const MemorySystem *Memories[] = {&Fixed, &Straddle, &Wide};
  const ProcessorModel Processors[] = {ProcessorModel::unlimited(),
                                       ProcessorModel::maxOutstanding(300),
                                       ProcessorModel::maxLength(280)};

  // 320 independent loads, one issued per cycle.
  BasicBlock Burst("burst");
  const Reg Base = Reg::makeVirtual(RegClass::Int, 0);
  for (unsigned K = 0; K != 320; ++K)
    Burst.append(Instruction::makeLoad(
        Opcode::FLoad, Reg::makeVirtual(RegClass::Fp, K + 1), Base, 8 * K, 0));

  MetricRegistry RefRegistry, Registry;
  ReferenceSimInstruments RefObs(RefRegistry);
  DecodedBlock Decoded;
  Rng G(0xB16B10C);
  unsigned Block = 0;
  for (const MemorySystem *Mem : Memories)
    for (const ProcessorModel &P : Processors)
      for (unsigned K = 0; K != 4; ++K, ++Block) {
        const BasicBlock BB = K == 0 ? Burst : randomSimBlock(G);
        SimInstruments Obs(Registry);
        Decoded.decode(BB, LatencyModel());
        for (unsigned Run = 0; Run != 3; ++Run) {
          const uint64_t Seed = Block * 31 + Run;
          Rng RefR(Seed), R(Seed);
          BlockSimResult Want = referenceSimulateBlock(
              BB, P, *Mem, RefR, LatencyModel(), &RefObs);
          BlockSimResult Got = Decoded.run(P, *Mem, R, &Obs);
          ASSERT_EQ(Got.Cycles, Want.Cycles)
              << "block " << Block << " run " << Run << " on " << P.name()
              << " " << Mem->name();
          ASSERT_EQ(Got.InterlockCycles, Want.InterlockCycles) << Block;
          ASSERT_EQ(Got.Instructions, Want.Instructions) << Block;
        }
      }

  MetricSnapshot Want = RefRegistry.snapshot(), Got = Registry.snapshot();
  EXPECT_EQ(Got.toJson(), Want.toJson());
  EXPECT_TRUE(Got == Want);
#ifndef BSCHED_NO_OBS
  for (const char *Name :
       {"bsched.sim.load_latency_cycles", "bsched.sim.outstanding_loads"}) {
    const HistogramData &H = Want.Histograms.at(Name);
    EXPECT_LT(H.Min, 256u) << Name;
    EXPECT_GT(H.Max, 256u) << Name;
  }
#endif
}
