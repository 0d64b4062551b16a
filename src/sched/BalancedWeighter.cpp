//===- sched/BalancedWeighter.cpp - Load-level-parallelism weights ---------=//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "sched/BalancedWeighter.h"

#include "dag/DagUtils.h"
#include "dag/Reachability.h"
#include "sched/WeighterScratch.h"
#include "support/ResourceGovernor.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <span>

using namespace bsched;

namespace {

/// The paper's union-find approximation of Chances for one component:
/// with node levels (distance from the farthest leaf) maintained as
/// min/max per set, the longest path length is (max - min + 1). That
/// counts *nodes*; clamp to the number of loads in the component so the
/// estimate never exceeds what any path could contain.
unsigned chancesByLevels(std::span<const unsigned> Component,
                         const std::vector<unsigned> &Levels,
                         unsigned NumLoadsInComponent) {
  unsigned MinLevel = ~0u, MaxLevel = 0;
  for (unsigned Node : Component) {
    MinLevel = std::min(MinLevel, Levels[Node]);
    MaxLevel = std::max(MaxLevel, Levels[Node]);
  }
  unsigned PathLength = MaxLevel - MinLevel + 1;
  return std::min(PathLength, NumLoadsInComponent);
}

/// Marks which nodes count as *uncertain* loads: known-latency loads are
/// excluded when the opt-out is honoured (section 6).
void uncertainLoads(const DepDag &Dag, bool HonorKnown,
                    std::vector<char> &Uncertain) {
  Uncertain.assign(Dag.size(), 0);
  for (unsigned I = 0, E = Dag.size(); I != E; ++I) {
    const Instruction &Instr = Dag.instruction(I);
    Uncertain[I] =
        Instr.isLoad() && !(HonorKnown && Instr.hasKnownLatency());
  }
}

/// Initial node weight before contributions are added.
double initialWeight(const Instruction &Instr, const LatencyModel &Model,
                     bool HonorKnown) {
  if (!Instr.isLoad())
    return Model.opLatency(Instr.opcode());
  if (HonorKnown && Instr.hasKnownLatency())
    return static_cast<double>(Instr.knownLatency());
  return 1.0;
}

} // namespace

/// Accumulates weights into \p Scratch.Weights and reports every
/// contribution through \p RecordShare; the breakdown path materializes
/// its O(n^2) matrix there while the hot path passes a no-op. Per-node
/// addition order is identical to the retained reference implementation
/// (ascending contributor, one share per node per contributor), so the
/// accumulated doubles are bit-identical to it.
template <typename RecordFnT>
void BalancedWeighter::runKernel(DepDag &Dag, WeighterScratch &Scratch,
                                 RecordFnT RecordShare) const {
  unsigned N = Dag.size();
  ++Scratch.Uses;
  ResourceGovernor *Gov = Scratch.Governor;

  // Step 1 (Figure 6): initialize uncertain-load weights to 1; non-loads
  // and known-latency loads keep their fixed latencies.
  uncertainLoads(Dag, HonorKnownLatency, Scratch.Uncertain);
  Scratch.UncertainBits.resize(N);
  Scratch.Weights.resize(N);
  for (unsigned I = 0; I != N; ++I) {
    if (Scratch.Uncertain[I])
      Scratch.UncertainBits.set(I);
    Scratch.Weights[I] =
        initialWeight(Dag.instruction(I), Model, HonorKnownLatency);
  }

  // G_ind source (dag/Reachability.h): the materialized row-sweep closure.
  Scratch.Closure.compute(Dag);

  // Steps 2-7: every instruction distributes its issue slots over the
  // loads it could hide behind. A share's value depends only on its
  // component's Chances, and each uncertain node receives exactly one
  // share per contributing instruction, so iteration order within a
  // contributor never changes the accumulated doubles — both branches
  // below stay bit-identical to the reference implementation.
  //
  // Chains make consecutive contributors' G_ind coincide exactly (for
  // A -> B where B is A's only successor and A is B's only predecessor,
  // Pred* ∪ Succ* ∪ {self} agree), and equal G_ind fixes the component
  // partition, so the previous contributor's per-node Chances can be
  // replayed without re-running the analysis. Valid within this run only.
  Scratch.NodeChances.resize(N);
  bool PrevValid = false;

  auto Contribute = [&](unsigned I) {
    Scratch.Closure.independentOf(I, Scratch.Independent);
    // Shares flow only to uncertain loads, so a G_ind without any (the
    // empty set included) contributes nothing — skip the whole analysis.
    if (!Scratch.Independent.intersects(Scratch.UncertainBits))
      return;

    double Slots = Model.issueSlots(Dag.instruction(I)) / SlotsPerCycle;
    const bool Reused =
        PrevValid && Scratch.Independent == Scratch.PrevIndependent;
    if (Reused) {
      Scratch.Independent.forEachSetBit([&](unsigned Node) {
        if (!Scratch.Uncertain[Node])
          return;
        double Share =
            Slots / static_cast<double>(Scratch.NodeChances[Node]);
        RecordShare(I, Node, Share);
        Scratch.Weights[Node] += Share;
      });
      return;
    }

    if (Method == ChancesMethod::UnionFindLevels) {
      // The paper's O(n a(n)) route, fused: one descending sweep levels
      // the subset and unions the induced edges while aggregating per-set
      // (min, max, loads), then every uncertain node takes its component's
      // share — no component lists materialized.
      uniteComponentStats(Dag, Scratch.Independent, Scratch.Dag,
                          Scratch.Uncertain);
      Scratch.Independent.forEachSetBit([&](unsigned Node) {
        if (!Scratch.Uncertain[Node])
          return;
        unsigned Chances = componentChances(Scratch.Dag, Node);
        assert(Chances >= 1 && "uncertain load with no chances");
        Scratch.NodeChances[Node] = Chances;
        double Share = Slots / static_cast<double>(Chances);
        RecordShare(I, Node, Share);
        Scratch.Weights[Node] += Share;
      });
    } else {
      unsigned NumComponents =
          connectedComponents(Dag, Scratch.Independent, Scratch.Dag);
      for (unsigned C = 0; C != NumComponents; ++C) {
        std::span<const unsigned> Component = Scratch.Dag.component(C);
        unsigned NumLoads = 0;
        for (unsigned Node : Component)
          NumLoads += Scratch.Uncertain[Node];
        if (NumLoads == 0)
          continue;

        unsigned Chances =
            longestLoadPathIn(Dag, Scratch.Dag, C, Scratch.Uncertain);
        assert(Chances >= 1 && "component with loads must have chances");

        double Share = Slots / static_cast<double>(Chances);
        for (unsigned Node : Component) {
          if (!Scratch.Uncertain[Node])
            continue;
          Scratch.NodeChances[Node] = Chances;
          RecordShare(I, Node, Share);
          Scratch.Weights[Node] += Share;
        }
      }
    }
    Scratch.PrevIndependent = Scratch.Independent;
    PrevValid = true;
  };

  // The governed loop polls once per contributor; the un-governed loop
  // carries no governor branch at all, keeping the hot path identical to
  // the pre-governance kernel (the <2% no-budget overhead gate of
  // bench_perf_scaling).
  if (Gov) {
    for (unsigned I = 0; I != N; ++I) {
      if (!Gov->poll())
        return; // Partial weights; caller must check Gov->tripped().
      Contribute(I);
    }
  } else {
    for (unsigned I = 0; I != N; ++I)
      Contribute(I);
  }

  for (unsigned I = 0; I != N; ++I)
    Dag.setWeight(I, Scratch.Weights[I]);
}

BalancedWeighter::Breakdown
BalancedWeighter::computeBreakdown(DepDag &Dag) const {
  unsigned N = Dag.size();
  Breakdown Result;
  Result.Contribution.assign(N, std::vector<double>(N, 0.0));

  WeighterScratch Scratch;
  runKernel(Dag, Scratch,
            [&](unsigned Contributor, unsigned Load, double Share) {
              Result.Contribution[Contributor][Load] = Share;
            });
  Result.Weights = std::move(Scratch.Weights);
  return Result;
}

void BalancedWeighter::assignWeights(DepDag &Dag) const {
  WeighterScratch Scratch;
  assignWeights(Dag, Scratch);
}

void BalancedWeighter::assignWeights(DepDag &Dag,
                                     WeighterScratch &Scratch) const {
  runKernel(Dag, Scratch, [](unsigned, unsigned, double) {});
}

void BalancedWeighter::assignWeightsReference(DepDag &Dag) const {
  unsigned N = Dag.size();

  // The pre-optimization kernel, kept verbatim as the differential-test
  // oracle: same algorithm, but every analysis allocates its own state
  // (fresh BitVector per G_ind, fresh union-find and vector-of-vectors per
  // component partition, fresh Levels vector per instruction).
  std::vector<char> Uncertain;
  uncertainLoads(Dag, HonorKnownLatency, Uncertain);
  std::vector<double> Weights(N);
  for (unsigned I = 0; I != N; ++I)
    Weights[I] = initialWeight(Dag.instruction(I), Model, HonorKnownLatency);

  TransitiveClosure Closure(Dag);

  for (unsigned I = 0; I != N; ++I) {
    BitVector Independent = Closure.independentOf(I);
    if (!Independent.any())
      continue;

    std::vector<unsigned> Levels;
    if (Method == ChancesMethod::UnionFindLevels)
      Levels = levelsFromLeavesWithin(Dag, Independent);

    double Slots = Model.issueSlots(Dag.instruction(I)) / SlotsPerCycle;
    for (const std::vector<unsigned> &Component :
         connectedComponents(Dag, Independent)) {
      unsigned NumLoads = 0;
      for (unsigned Node : Component)
        NumLoads += Uncertain[Node];
      if (NumLoads == 0)
        continue;

      unsigned Chances =
          Method == ChancesMethod::ExactLongestPath
              ? longestLoadPath(Dag, Component, Uncertain)
              : chancesByLevels(Component, Levels, NumLoads);
      double Share = Slots / static_cast<double>(Chances);
      for (unsigned Node : Component)
        if (Uncertain[Node])
          Weights[Node] += Share;
    }
  }

  for (unsigned I = 0; I != N; ++I)
    Dag.setWeight(I, Weights[I]);
}

std::string BalancedWeighter::name() const {
  return Method == ChancesMethod::ExactLongestPath ? "balanced"
                                                   : "balanced-uf";
}
