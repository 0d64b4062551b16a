//===- tests/WeighterDifferentialTest.cpp - Kernel vs. reference oracle ---=//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized differential tests for the allocation-free balanced-weighting
/// kernel: over thousands of random DAGs — both Chances methods, known
/// latencies honoured and ignored — the optimized scratch-driven kernel
/// must produce weights *bit-identical* to the retained allocating
/// reference implementation (BalancedWeighter::assignWeightsReference).
/// Bit-identity, not epsilon-closeness: the kernel adds the same shares in
/// the same order, so any drift means the analyses diverged. One scratch is
/// reused across every DAG and configuration, which is exactly the
/// pipeline's reuse pattern. The transitive closure itself is checked
/// against a depth-first search, with and without its Pred matrix.
///
//===----------------------------------------------------------------------===//

#include "dag/DagBuilder.h"
#include "dag/DepDag.h"
#include "dag/Reachability.h"
#include "ir/BasicBlock.h"
#include "sched/BalancedWeighter.h"
#include "sched/WeighterScratch.h"
#include "support/Rng.h"
#include "workload/HugeBlocks.h"

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

using namespace bsched;

namespace {

/// Shape of one random test DAG: which nodes are loads, which loads carry
/// a statically known latency, and the forward edge list. A DepDag can be
/// instantiated from it repeatedly so the optimized and reference kernels
/// each get a fresh, identical graph.
struct RandomDagSpec {
  std::vector<bool> IsLoad;
  std::vector<unsigned> KnownLatency; ///< 0 = unknown; else cycles.
  std::vector<std::pair<unsigned, unsigned>> Edges;

  DepDag instantiate() const {
    BasicBlock BB("random");
    for (unsigned I = 0; I != IsLoad.size(); ++I) {
      Reg Dst = Reg::makeVirtual(RegClass::Int, I);
      if (IsLoad[I]) {
        Reg Base = Reg::makeVirtual(RegClass::Int, 1000 + I);
        Instruction Load = Instruction::makeLoad(
            Opcode::Load, Dst, Base, 0, static_cast<AliasClassId>(I));
        if (KnownLatency[I] != 0)
          Load.setKnownLatency(KnownLatency[I]);
        BB.append(std::move(Load));
      } else {
        Reg Src = Reg::makeVirtual(RegClass::Int, 2000 + I);
        BB.append(Instruction::makeBinaryImm(Opcode::AddI, Dst, Src,
                                             static_cast<int64_t>(I)));
      }
    }
    DepDag Dag(BB);
    for (auto [From, To] : Edges)
      Dag.addEdge(From, To, DepKind::Data);
    return Dag;
  }
};

/// Draws a random DAG of exactly \p N nodes: ~40% loads (~30% of those
/// with a known latency), and forward edges with a density drawn per graph
/// so the suite covers everything from edge-free (all nodes mutually
/// independent) to near-chains (few independent nodes).
RandomDagSpec randomSpecOfSize(Rng &R, unsigned N) {
  RandomDagSpec Spec;
  Spec.IsLoad.resize(N);
  Spec.KnownLatency.assign(N, 0);
  for (unsigned I = 0; I != N; ++I) {
    Spec.IsLoad[I] = R.nextBernoulli(0.4);
    if (Spec.IsLoad[I] && R.nextBernoulli(0.3))
      Spec.KnownLatency[I] = 2 + static_cast<unsigned>(R.nextBounded(19));
  }
  double Density = R.nextDouble() * 0.5;
  for (unsigned From = 0; From + 1 < N; ++From)
    for (unsigned To = From + 1; To != N; ++To)
      if (R.nextBernoulli(Density / (1.0 + 0.1 * (To - From))))
        Spec.Edges.push_back({From, To});
  return Spec;
}

/// The original 1-48 node draw used by the randomized suites.
RandomDagSpec randomSpec(Rng &R) {
  return randomSpecOfSize(R, 1 + static_cast<unsigned>(R.nextBounded(48)));
}

/// Exact double comparison through the bit pattern, so the failure message
/// shows which bits drifted (EXPECT_EQ on doubles would also be exact, but
/// 0.0 == -0.0 would pass — bit-identity must not).
void expectBitIdentical(const DepDag &Got, const DepDag &Want,
                        unsigned Node) {
  EXPECT_EQ(std::bit_cast<uint64_t>(Got.weight(Node)),
            std::bit_cast<uint64_t>(Want.weight(Node)))
      << "weight mismatch at node " << Node << ": optimized "
      << Got.weight(Node) << " vs reference " << Want.weight(Node);
}

struct KernelConfig {
  ChancesMethod Method;
  bool HonorKnown;
};

constexpr KernelConfig Configs[] = {
    {ChancesMethod::ExactLongestPath, true},
    {ChancesMethod::ExactLongestPath, false},
    {ChancesMethod::UnionFindLevels, true},
    {ChancesMethod::UnionFindLevels, false},
};

TEST(WeighterDifferential, RandomDagsBitIdenticalToReference) {
  Rng R(0xD1FFE2E7);
  WeighterScratch Scratch; // One scratch across all DAGs and configs.
  constexpr unsigned NumDags = 1200;
  for (unsigned Trial = 0; Trial != NumDags; ++Trial) {
    RandomDagSpec Spec = randomSpec(R);
    for (const KernelConfig &Config : Configs) {
      BalancedWeighter W(LatencyModel(), Config.Method, 1.0,
                         Config.HonorKnown);
      DepDag Optimized = Spec.instantiate();
      DepDag Reference = Spec.instantiate();
      W.assignWeights(Optimized, Scratch);
      W.assignWeightsReference(Reference);
      ASSERT_EQ(Optimized.size(), Reference.size());
      for (unsigned I = 0; I != Optimized.size(); ++I)
        expectBitIdentical(Optimized, Reference, I);
      if (HasFailure())
        return; // One diverging DAG is enough diagnosis.
    }
  }
  EXPECT_EQ(Scratch.uses(), uint64_t{NumDags} * std::size(Configs));
}

TEST(WeighterDifferential, SuperscalarWidthsMatchReference) {
  Rng R(0x5CA1E5);
  WeighterScratch Scratch;
  for (unsigned Trial = 0; Trial != 200; ++Trial) {
    RandomDagSpec Spec = randomSpec(R);
    for (double Width : {2.0, 4.0}) {
      for (const KernelConfig &Config : Configs) {
        BalancedWeighter W(LatencyModel(), Config.Method, Width,
                           Config.HonorKnown);
        DepDag Optimized = Spec.instantiate();
        DepDag Reference = Spec.instantiate();
        W.assignWeights(Optimized, Scratch);
        W.assignWeightsReference(Reference);
        for (unsigned I = 0; I != Optimized.size(); ++I)
          expectBitIdentical(Optimized, Reference, I);
        if (HasFailure())
          return;
      }
    }
  }
}

TEST(WeighterDifferential, BreakdownWeightsMatchReference) {
  Rng R(0xB4EAD0);
  for (unsigned Trial = 0; Trial != 300; ++Trial) {
    RandomDagSpec Spec = randomSpec(R);
    for (const KernelConfig &Config : Configs) {
      BalancedWeighter W(LatencyModel(), Config.Method, 1.0,
                         Config.HonorKnown);
      DepDag ForBreakdown = Spec.instantiate();
      DepDag Reference = Spec.instantiate();
      BalancedWeighter::Breakdown Breakdown =
          W.computeBreakdown(ForBreakdown);
      W.assignWeightsReference(Reference);

      ASSERT_EQ(Breakdown.Weights.size(), Reference.size());
      for (unsigned I = 0; I != Reference.size(); ++I) {
        EXPECT_EQ(std::bit_cast<uint64_t>(Breakdown.Weights[I]),
                  std::bit_cast<uint64_t>(Reference.weight(I)));
        // computeBreakdown also writes the weights into its DAG.
        expectBitIdentical(ForBreakdown, Reference, I);
      }
      if (HasFailure())
        return;
    }
  }
}

/// Reachability by depth-first search over the DAG's successor lists: an
/// oracle independent of TransitiveClosure's row sweep.
std::vector<std::vector<bool>> reachabilityByDfs(const DepDag &Dag) {
  const unsigned N = Dag.size();
  std::vector<std::vector<bool>> Reaches(N, std::vector<bool>(N, false));
  std::vector<unsigned> Stack;
  for (unsigned From = 0; From != N; ++From) {
    Stack.assign(1, From);
    while (!Stack.empty()) {
      unsigned Node = Stack.back();
      Stack.pop_back();
      for (const DepEdge &E : Dag.succs(Node))
        if (!Reaches[From][E.Other]) {
          Reaches[From][E.Other] = true;
          Stack.push_back(E.Other);
        }
    }
  }
  return Reaches;
}

TEST(WeighterDifferential, ClosureWithoutPredMatrixIsEquivalent) {
  Rng R(0xC105E);
  TransitiveClosure Dense, Lean; // Reused across DAGs like the scratch.
  BitVector DenseInd, LeanInd;
  for (unsigned Trial = 0; Trial != 400; ++Trial) {
    DepDag Dag = randomSpec(R).instantiate();
    Dense.compute(Dag, /*StorePreds=*/true);
    Lean.compute(Dag, /*StorePreds=*/false);
    ASSERT_TRUE(Dense.storesPreds());
    ASSERT_FALSE(Lean.storesPreds());
    for (unsigned I = 0; I != Dag.size(); ++I) {
      Dense.independentOf(I, DenseInd);
      Lean.independentOf(I, LeanInd);
      ASSERT_EQ(DenseInd, LeanInd) << "G_ind mismatch at node " << I;
      ASSERT_EQ(Dense.predsOf(I), Lean.predsOf(I))
          << "Pred* mismatch at node " << I;
      ASSERT_EQ(Dense.succsOf(I), Lean.succsOf(I))
          << "Succ* mismatch at node " << I;
    }
  }
}

/// The row sweep at sizes straddling the 64-bit word boundaries (partial
/// last word, exactly full words, one node past a full word), with and
/// without the Pred matrix, must match a DFS on every reaches(I, J), every
/// Succ*/Pred* row and every independence set. One pair of closures is
/// reused across all sizes, so rows shrinking and growing between DAGs
/// must leave no stale tail bits.
TEST(WeighterDifferential, ClosureKernelsAgreeAtWordBoundaries) {
  Rng R(0xB10CC);
  TransitiveClosure Dense, Lean;
  BitVector Ind;
  for (unsigned N : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 130u, 257u}) {
    for (unsigned Trial = 0; Trial != 6; ++Trial) {
      DepDag Dag = randomSpecOfSize(R, N).instantiate();
      Dense.compute(Dag, /*StorePreds=*/true);
      Lean.compute(Dag, /*StorePreds=*/false);
      ASSERT_EQ(Dense.size(), N);
      ASSERT_EQ(Lean.size(), N);
      const std::vector<std::vector<bool>> Reaches = reachabilityByDfs(Dag);
      for (const TransitiveClosure *C : {&Dense, &Lean}) {
        for (unsigned I = 0; I != N; ++I) {
          BitVector Succs(N), Preds(N), Expected(N);
          for (unsigned J = 0; J != N; ++J) {
            ASSERT_EQ(C->reaches(I, J), Reaches[I][J])
                << "reaches(" << I << ", " << J << ") of " << N;
            if (Reaches[I][J])
              Succs.set(J);
            if (Reaches[J][I])
              Preds.set(J);
            if (J != I && !Reaches[I][J] && !Reaches[J][I])
              Expected.set(J);
          }
          ASSERT_EQ(C->succsOf(I), Succs)
              << "Succ* at node " << I << " of " << N;
          ASSERT_EQ(C->predsOf(I), Preds)
              << "Pred* at node " << I << " of " << N;
          C->independentOf(I, Ind);
          ASSERT_EQ(Ind, Expected) << "G_ind at node " << I << " of " << N;
        }
      }
    }
  }
}

/// The huge-DAG oracle: on real builder-produced DAGs at n in {64, 512,
/// 4096}, the scratch kernel must reproduce the allocating reference's
/// weights bit-for-bit for both Chances methods.
TEST(WeighterDifferential, HugeBlocksBitIdenticalToReference) {
  WeighterScratch Scratch;
  for (unsigned Size : {64u, 512u, 4096u}) {
    Function F = buildHugeBlock(Size);
    for (ChancesMethod Method :
         {ChancesMethod::ExactLongestPath, ChancesMethod::UnionFindLevels}) {
      DepDag Reference = buildDag(F.block(0));
      BalancedWeighter W(LatencyModel(), Method, 1.0, true);
      W.assignWeightsReference(Reference);

      DepDag Dag = buildDag(F.block(0));
      W.assignWeights(Dag, Scratch);
      ASSERT_EQ(Dag.size(), Size);
      for (unsigned I = 0; I != Dag.size(); ++I)
        expectBitIdentical(Dag, Reference, I);
      if (HasFailure())
        return;
    }
  }
}

/// The scratch entry point and the plain entry point must agree (the plain
/// one is a thin wrapper, but the wrapper is what non-pipeline callers
/// use).
TEST(WeighterDifferential, ScratchAndPlainEntryPointsAgree) {
  Rng R(0xE27);
  WeighterScratch Scratch;
  for (unsigned Trial = 0; Trial != 100; ++Trial) {
    RandomDagSpec Spec = randomSpec(R);
    BalancedWeighter W;
    DepDag ViaScratch = Spec.instantiate();
    DepDag Plain = Spec.instantiate();
    W.assignWeights(ViaScratch, Scratch);
    W.assignWeights(Plain);
    for (unsigned I = 0; I != Plain.size(); ++I)
      expectBitIdentical(ViaScratch, Plain, I);
    if (HasFailure())
      return;
  }
}

} // namespace
