//===- dag/DagUtils.cpp - DAG analyses -------------------------------------=//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "dag/DagUtils.h"

#include "support/UnionFind.h"

#include <algorithm>

using namespace bsched;

std::vector<std::vector<unsigned>>
bsched::connectedComponents(const DepDag &Dag, const BitVector &Subset) {
  UnionFind UF(Dag.size());
  Subset.forEachSetBit([&](unsigned Node) {
    for (const DepEdge &E : Dag.succs(Node))
      if (Subset.test(E.Other))
        UF.unite(Node, E.Other);
  });

  // Map each set representative to a dense component index in order of
  // first appearance (components end up ordered by their smallest node).
  std::vector<unsigned> RootToComponent(Dag.size(), ~0u);
  std::vector<std::vector<unsigned>> Components;
  Subset.forEachSetBit([&](unsigned Node) {
    unsigned Root = UF.find(Node);
    if (RootToComponent[Root] == ~0u) {
      RootToComponent[Root] = static_cast<unsigned>(Components.size());
      Components.emplace_back();
    }
    Components[RootToComponent[Root]].push_back(Node);
  });
  return Components;
}

void DagScratch::ensureSize(unsigned N) {
  if (Parent.size() >= N)
    return;
  Parent.resize(N);
  Rank.resize(N);
  UfStamp.resize(N, 0);
  CompOf.resize(N);
  CompStamp.resize(N, 0);
  Levels.resize(N);
  BestTo.resize(N);
  MinLevel.resize(N);
  MaxLevel.resize(N);
  LoadCount.resize(N);
}

unsigned bsched::connectedComponents(const DepDag &Dag,
                                     const BitVector &Subset,
                                     DagScratch &Scratch) {
  Scratch.ensureSize(Dag.size());
  ++Scratch.Epoch; // Invalidates every stamped entry at once.

  Subset.forEachSetBit([&](unsigned Node) {
    for (const DepEdge &E : Dag.succs(Node))
      if (Subset.test(E.Other))
        Scratch.unite(Node, E.Other);
  });

  // Counting pass: dense component ids in order of first appearance, and
  // per-component sizes accumulated into the CSR offset array. A set
  // representative is always a subset node, so stamping CompOf at the root
  // seeds the id for every later member of its set.
  Scratch.CompStart.assign(1, 0);
  unsigned SubsetCount = 0;
  Subset.forEachSetBit([&](unsigned Node) {
    unsigned Root = Scratch.find(Node);
    unsigned C;
    if (Scratch.CompStamp[Root] != Scratch.Epoch) {
      C = static_cast<unsigned>(Scratch.CompStart.size()) - 1;
      Scratch.CompStamp[Root] = Scratch.Epoch;
      Scratch.CompOf[Root] = C;
      Scratch.CompStart.push_back(0);
    } else {
      C = Scratch.CompOf[Root];
    }
    Scratch.CompStamp[Node] = Scratch.Epoch;
    Scratch.CompOf[Node] = C;
    ++Scratch.CompStart[C + 1];
    ++SubsetCount;
  });
  for (size_t C = 1; C != Scratch.CompStart.size(); ++C)
    Scratch.CompStart[C] += Scratch.CompStart[C - 1];

  // Placement pass: ascending bit order fills each component's CSR range
  // in ascending node order.
  Scratch.CompNodes.resize(SubsetCount);
  Scratch.Cursor.assign(Scratch.CompStart.begin(),
                        Scratch.CompStart.end() - 1);
  Subset.forEachSetBit([&](unsigned Node) {
    Scratch.CompNodes[Scratch.Cursor[Scratch.CompOf[Node]]++] = Node;
  });
  return Scratch.componentCount();
}

namespace {

/// Longest path DP over the induced sub-DAG, counting the nodes selected
/// by \p Counts. Nodes in Component are ascending, and edges always point
/// to higher indices, so a single forward pass is a topological sweep.
template <typename CountFnT>
unsigned longestCountedPath(const DepDag &Dag,
                            const std::vector<unsigned> &Component,
                            CountFnT Counts) {
  BitVector InComponent(Dag.size());
  for (unsigned Node : Component)
    InComponent.set(Node);

  std::vector<unsigned> BestTo(Dag.size(), 0); // Node -> max count there.
  unsigned Best = 0;
  for (unsigned Node : Component) {
    unsigned Here = BestTo[Node] + (Counts(Node) ? 1 : 0);
    BestTo[Node] = Here;
    Best = std::max(Best, Here);
    for (const DepEdge &E : Dag.succs(Node))
      if (InComponent.test(E.Other))
        BestTo[E.Other] = std::max(BestTo[E.Other], Here);
  }
  return Best;
}

} // namespace

unsigned bsched::longestLoadPath(const DepDag &Dag,
                                 const std::vector<unsigned> &Component) {
  return longestCountedPath(Dag, Component,
                            [&](unsigned Node) { return Dag.isLoad(Node); });
}

unsigned bsched::longestLoadPath(const DepDag &Dag,
                                 const std::vector<unsigned> &Component,
                                 const std::vector<char> &CountedLoads) {
  return longestCountedPath(Dag, Component, [&](unsigned Node) {
    return CountedLoads[Node] != 0;
  });
}

unsigned bsched::longestLoadPathIn(const DepDag &Dag, DagScratch &Scratch,
                                   unsigned C,
                                   const std::vector<char> &CountedLoads) {
  std::span<const unsigned> Component = Scratch.component(C);
  // Components partition the subset, so zeroing only this component's DP
  // cells makes the flat array as good as freshly cleared.
  for (unsigned Node : Component)
    Scratch.BestTo[Node] = 0;

  unsigned Best = 0;
  for (unsigned Node : Component) {
    unsigned Here = Scratch.BestTo[Node] + (CountedLoads[Node] ? 1 : 0);
    Scratch.BestTo[Node] = Here;
    Best = std::max(Best, Here);
    for (const DepEdge &E : Dag.succs(Node))
      if (Scratch.inComponent(E.Other, C))
        Scratch.BestTo[E.Other] = std::max(Scratch.BestTo[E.Other], Here);
  }
  return Best;
}

void bsched::uniteComponentStats(const DepDag &Dag, const BitVector &Subset,
                                 DagScratch &Scratch,
                                 const std::vector<char> &CountedLoads) {
  Scratch.ensureSize(Dag.size());
  ++Scratch.Epoch;

  // One descending sweep does everything. Edges point to higher indices,
  // so when the sweep reaches a node every subset successor already holds
  // its final level and a live singleton/set — the node's own level is
  // complete after scanning its successors, at which point it becomes an
  // explicitly stamped singleton (find() never lazily re-creates one and
  // loses the aggregates) and unions into its successors' sets.
  //
  // (Measured note: fusing the two successor scans into one — sentinel
  // singleton first, level folded at the root afterwards — is ~25% slower
  // here despite half the edge walks: the level scan is a tight dependence-
  // free loop, and interleaving find() chains into it stalls both.)
  for (unsigned Node = Dag.size(); Node-- > 0;) {
    if (!Subset.test(Node))
      continue;

    unsigned Level = 1;
    for (const DepEdge &E : Dag.succs(Node))
      if (Subset.test(E.Other))
        Level = std::max(Level, Scratch.Levels[E.Other] + 1);
    Scratch.Levels[Node] = Level;

    Scratch.UfStamp[Node] = Scratch.Epoch;
    Scratch.Parent[Node] = Node;
    Scratch.Rank[Node] = 0;
    Scratch.MinLevel[Node] = Level;
    Scratch.MaxLevel[Node] = Level;
    Scratch.LoadCount[Node] = CountedLoads[Node] ? 1u : 0u;

    // Union with each subset successor, folding the smaller-rank root's
    // aggregates into the survivor. The successor list is still cache-hot
    // from the level scan. The node's own root is tracked across the loop
    // (it can only move to the union's surviving root), so each edge costs
    // one find() instead of two — the finds are this sweep's hottest
    // instructions (see bench_huge_dag's throughput section).
    unsigned NodeRoot = Node; // Freshly stamped singleton.
    for (const DepEdge &E : Dag.succs(Node)) {
      if (!Subset.test(E.Other))
        continue;
      unsigned RootA = NodeRoot;
      unsigned RootB = Scratch.find(E.Other);
      if (RootA == RootB)
        continue;
      if (Scratch.Rank[RootA] < Scratch.Rank[RootB])
        std::swap(RootA, RootB);
      Scratch.Parent[RootB] = RootA;
      if (Scratch.Rank[RootA] == Scratch.Rank[RootB])
        ++Scratch.Rank[RootA];
      Scratch.MinLevel[RootA] =
          std::min(Scratch.MinLevel[RootA], Scratch.MinLevel[RootB]);
      Scratch.MaxLevel[RootA] =
          std::max(Scratch.MaxLevel[RootA], Scratch.MaxLevel[RootB]);
      Scratch.LoadCount[RootA] += Scratch.LoadCount[RootB];
      NodeRoot = RootA;
    }
  }
}

unsigned bsched::componentChances(DagScratch &Scratch, unsigned Node) {
  unsigned Root = Scratch.find(Node);
  unsigned PathLength =
      Scratch.MaxLevel[Root] - Scratch.MinLevel[Root] + 1;
  return std::min(PathLength, Scratch.LoadCount[Root]);
}

std::vector<unsigned> bsched::levelsFromLeaves(const DepDag &Dag) {
  unsigned N = Dag.size();
  std::vector<unsigned> Levels(N, 1);
  for (unsigned I = N; I-- > 0;)
    for (const DepEdge &E : Dag.succs(I))
      Levels[I] = std::max(Levels[I], Levels[E.Other] + 1);
  return Levels;
}

std::vector<unsigned>
bsched::levelsFromLeavesWithin(const DepDag &Dag, const BitVector &Subset) {
  std::vector<unsigned> Levels(Dag.size(), 0);
  for (unsigned I = Dag.size(); I-- > 0;) {
    if (!Subset.test(I))
      continue;
    Levels[I] = 1;
    for (const DepEdge &E : Dag.succs(I))
      if (Subset.test(E.Other))
        Levels[I] = std::max(Levels[I], Levels[E.Other] + 1);
  }
  return Levels;
}

double bsched::criticalPathLength(const DepDag &Dag) {
  unsigned N = Dag.size();
  std::vector<double> Best(N, 0.0);
  double Overall = 0.0;
  for (unsigned I = N; I-- > 0;) {
    double Here = std::max(Dag.weight(I), 1.0);
    double BestSucc = 0.0;
    for (const DepEdge &E : Dag.succs(I))
      BestSucc = std::max(BestSucc, Best[E.Other]);
    Best[I] = Here + BestSucc;
    Overall = std::max(Overall, Best[I]);
  }
  return Overall;
}
