//===- dag/DagUtils.h - DAG analyses ---------------------------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared DAG analyses: connected components of an induced subgraph,
/// longest load path within a component (the paper's "Chances"), critical
/// path length, and node levels.
///
/// Each analysis comes in two forms. The plain functions allocate their
/// result and are the convenient API for tests and one-shot callers. The
/// `DagScratch` overloads are the balanced-weighting kernel's hot path:
/// all working state lives in flat, epoch-stamped arrays owned by the
/// scratch, so running an analysis n times over one DAG (once per
/// instruction) performs zero heap allocations after the first call — a
/// stamp mismatch *is* the reset, no O(n) clearing between calls.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_DAG_DAGUTILS_H
#define BSCHED_DAG_DAGUTILS_H

#include "dag/DepDag.h"
#include "support/BitVector.h"

#include <cstdint>
#include <span>
#include <vector>

namespace bsched {

/// Reusable flat-array workspace for the scratch variants below.
///
/// The component partition computed by the scratch overload of
/// connectedComponents is stored here in CSR form (one node array plus
/// component offsets) and stays valid until the next call. The union-find
/// parent array and per-node component ids are generation-counted: bumping
/// `Epoch` invalidates every entry at once, and `find` lazily re-creates a
/// singleton the first time a node is touched in the new generation.
class DagScratch {
public:
  /// Number of components found by the last connectedComponents call.
  unsigned componentCount() const {
    return static_cast<unsigned>(CompStart.size()) - 1;
  }

  /// The nodes of component \p C, ascending. Valid until the next
  /// connectedComponents call on this scratch.
  std::span<const unsigned> component(unsigned C) const {
    assert(C + 1 < CompStart.size() && "component index out of range");
    return {CompNodes.data() + CompStart[C],
            CompNodes.data() + CompStart[C + 1]};
  }

  /// True if \p Node was placed in component \p C by the last
  /// connectedComponents call.
  bool inComponent(unsigned Node, unsigned C) const {
    return Node < CompOf.size() && CompStamp[Node] == Epoch &&
           CompOf[Node] == C;
  }

private:
  friend unsigned connectedComponents(const DepDag &Dag,
                                      const BitVector &Subset,
                                      DagScratch &Scratch);
  friend unsigned longestLoadPathIn(const DepDag &Dag, DagScratch &Scratch,
                                    unsigned C,
                                    const std::vector<char> &CountedLoads);
  friend void uniteComponentStats(const DepDag &Dag, const BitVector &Subset,
                                  DagScratch &Scratch,
                                  const std::vector<char> &CountedLoads);
  friend unsigned componentChances(DagScratch &Scratch, unsigned Node);

  /// Lazily initializing union-find lookup with path halving. A node whose
  /// stamp is stale is (re)born as a singleton.
  unsigned find(unsigned X) {
    if (UfStamp[X] != Epoch) {
      UfStamp[X] = Epoch;
      Parent[X] = X;
      Rank[X] = 0;
    }
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }

  /// Union by rank; both operands are initialized by find().
  void unite(unsigned A, unsigned B) {
    unsigned RootA = find(A);
    unsigned RootB = find(B);
    if (RootA == RootB)
      return;
    if (Rank[RootA] < Rank[RootB])
      std::swap(RootA, RootB);
    Parent[RootB] = RootA;
    if (Rank[RootA] == Rank[RootB])
      ++Rank[RootA];
  }

  /// Grows every per-node array to cover \p N nodes (stamps start stale).
  void ensureSize(unsigned N);

  uint64_t Epoch = 0; ///< Current generation; 0 = never used.

  // Union-find over node indices, valid for entries stamped with Epoch.
  std::vector<unsigned> Parent;
  std::vector<uint8_t> Rank;
  std::vector<uint64_t> UfStamp;

  // CSR component partition of the last connectedComponents call.
  std::vector<unsigned> CompNodes; ///< Subset nodes grouped by component.
  std::vector<unsigned> CompStart; ///< Offsets, size componentCount() + 1.
  std::vector<unsigned> CompOf;    ///< Node -> component id (stamped).
  std::vector<uint64_t> CompStamp;
  std::vector<unsigned> Cursor;    ///< Per-component CSR fill cursor.

  std::vector<unsigned> Levels; ///< uniteComponentStats node levels.
  std::vector<unsigned> BestTo; ///< longestLoadPathIn DP cells.

  // Per-set aggregates maintained by uniteComponentStats, valid at roots.
  std::vector<unsigned> MinLevel;
  std::vector<unsigned> MaxLevel;
  std::vector<unsigned> LoadCount;
};

/// Partitions the nodes selected by \p Subset into weakly connected
/// components (edge direction ignored), considering only edges whose both
/// endpoints are in the subset. Each component is an ascending node list.
std::vector<std::vector<unsigned>>
connectedComponents(const DepDag &Dag, const BitVector &Subset);

/// Scratch variant: partitions \p Subset into \p Scratch's CSR storage and
/// returns the component count. Components are ordered by their smallest
/// node and each holds ascending nodes — the same order the allocating
/// variant produces. No allocation once the scratch has reached the DAG's
/// size.
unsigned connectedComponents(const DepDag &Dag, const BitVector &Subset,
                             DagScratch &Scratch);

/// Returns the maximum number of load nodes on any directed path that stays
/// inside \p Component (a subset of \p Dag's nodes). This is the paper's
/// "Chances" for one connected component of G_ind: loads in series can each
/// hide a share of an independent instruction, so the count of serial loads
/// divides the contribution. Returns 0 when the component has no loads.
unsigned longestLoadPath(const DepDag &Dag,
                         const std::vector<unsigned> &Component);

/// Variant of longestLoadPath counting only the nodes marked in
/// \p CountedLoads (used by the known-latency extension, which excludes
/// deterministic loads from the Chances divisor).
unsigned longestLoadPath(const DepDag &Dag,
                         const std::vector<unsigned> &Component,
                         const std::vector<char> &CountedLoads);

/// Scratch variant of longestLoadPath over component \p C of the partition
/// most recently computed into \p Scratch: same DP, but membership tests
/// use the stamped component ids and the per-node DP cells are flat arrays
/// zeroed by a sweep over the component only.
unsigned longestLoadPathIn(const DepDag &Dag, DagScratch &Scratch,
                           unsigned C,
                           const std::vector<char> &CountedLoads);

/// Level of each node measured from the DAG leaves: leaves are level 1;
/// an inner node is 1 + max level of its successors. Used by the paper's
/// union-find approximation of longestLoadPath.
std::vector<unsigned> levelsFromLeaves(const DepDag &Dag);

/// Same as levelsFromLeaves but restricted to the induced subgraph on
/// \p Subset: only edges with both endpoints in the subset count, and
/// nodes outside the subset get level 0. This is the per-G_ind labelling
/// of the paper's section 3 union-find construction.
std::vector<unsigned> levelsFromLeavesWithin(const DepDag &Dag,
                                             const BitVector &Subset);

/// The paper's O(n a(n)) Chances construction in one fused pass over the
/// subset-induced edges: a single descending sweep computes each node's
/// level from the leaves (identical to levelsFromLeavesWithin — a node's
/// level is final before any earlier node reads it) and unions its subset
/// successors while maintaining, per union-find set, the level range and
/// the number of counted loads. No component lists are materialized —
/// after this call, componentChances answers min(maxLevel - minLevel + 1,
/// loads) for any subset node's component in near-constant time. This is
/// what the balanced weighter's union-find mode runs per instruction; the
/// CSR connectedComponents overload above serves callers that need the
/// explicit partition (the exact longest-path mode, tests).
void uniteComponentStats(const DepDag &Dag, const BitVector &Subset,
                         DagScratch &Scratch,
                         const std::vector<char> &CountedLoads);

/// The Chances estimate for the component containing \p Node (which must
/// be in the subset of the preceding uniteComponentStats call): the
/// union-find level-range path length, clamped to the component's counted
/// loads. Matches chancesByLevels over the materialized component.
unsigned componentChances(DagScratch &Scratch, unsigned Node);

/// Weighted critical-path length through the DAG, where each node
/// contributes its scheduling weight (minimum 1 issue slot).
double criticalPathLength(const DepDag &Dag);

} // namespace bsched

#endif // BSCHED_DAG_DAGUTILS_H
