//===- dag/Reachability.h - Transitive closure -----------------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transitive closure over a code DAG. The balanced-scheduling algorithm
/// needs, for every instruction i, the sets Pred*(i) and Succ*(i)
/// (section 3, step 3: G_ind = G - (Pred(i) u Succ(i))); computing all rows
/// once as bit vectors makes that subtraction a few word operations.
///
/// The rows live in two flat word arrays (one allocation per direction
/// instead of one vector per node), filled by one reverse sweep that ORs
/// whole successor rows (and one forward sweep over predecessor rows).
/// The closure is reusable: `compute()` re-derives the rows for another
/// DAG in the same storage, so a weighter scratch amortizes the allocation
/// across every block of a compilation. Because node order is
/// topological, Pred*(i) is exactly the set of j with i in Succ*(j);
/// `StorePreds = false` drops the dense Pred matrix (halving closure
/// memory) and derives predecessor bits from the Succ rows on demand.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_DAG_REACHABILITY_H
#define BSCHED_DAG_REACHABILITY_H

#include "dag/DepDag.h"
#include "support/BitVector.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace bsched {

/// The closure modes ConfigJson v1 accepts. They have no effect: every
/// mode runs the one row sweep below. They stay, with ClosureOptions,
/// because perfbench passes them to BalancedWeighter and hashes their
/// JSON into its input digests; they go when the benchmark next changes
/// (ROADMAP.md).
enum class ClosureMode : uint8_t {
  Auto,
  Materialized,
  Blocked,
  OnDemand,
};

/// Returns "auto"/"materialized"/"blocked"/"on-demand".
const char *closureModeName(ClosureMode Mode);

/// Parses a closureModeName spelling; returns false on anything else.
bool parseClosureModeName(std::string_view Name, ClosureMode &Mode);

/// The v1 `closure` config object, serialized byte-for-byte as before.
/// No effect on compilation, and not part of the compile-cache key.
struct ClosureOptions {
  ClosureMode Mode = ClosureMode::Auto;
  unsigned OnDemandThreshold = 2048;
};

/// Dense transitive closure of a DepDag.
class TransitiveClosure {
public:
  /// An empty closure; call compute() before use.
  TransitiveClosure() = default;

  /// Computes Pred*/Succ* rows for every node of \p Dag. O(n^2 / 64) words.
  /// With \p StorePreds false only the Succ matrix is materialized.
  explicit TransitiveClosure(const DepDag &Dag, bool StorePreds = true) {
    compute(Dag, StorePreds);
  }

  /// Recomputes the closure for \p Dag, reusing the row storage (no
  /// allocation when \p Dag is no larger than any previously computed DAG).
  void compute(const DepDag &Dag, bool StorePreds = true);

  /// Number of nodes in the closed DAG.
  unsigned size() const { return N; }

  /// True if the dense Pred matrix is materialized.
  bool storesPreds() const { return HavePreds; }

  /// All strict transitive successors of \p Node.
  BitVector succsOf(unsigned Node) const;

  /// All strict transitive predecessors of \p Node. Works in both storage
  /// modes; without the Pred matrix the row is derived from the Succ
  /// columns (O(n) bit tests — a cold-path query, not the kernel).
  BitVector predsOf(unsigned Node) const;

  /// True if \p From reaches \p To through one or more edges.
  bool reaches(unsigned From, unsigned To) const {
    assert(From < N && To < N && "closure query out of range");
    return (SuccWords[size_t(From) * WordsPerRow + (To >> 6)] >>
            (To & 63)) &
           1;
  }

  /// The set of nodes *independent* of \p Node: everything except the node
  /// itself, its transitive predecessors, and its transitive successors.
  /// This is the node set of the paper's G_ind.
  BitVector independentOf(unsigned Node) const;

  /// In-place variant of independentOf: \p Out is resized to the DAG and
  /// overwritten without allocating (when its capacity suffices). This is
  /// the hot-path entry used by the balanced-weighting kernel.
  void independentOf(unsigned Node, BitVector &Out) const;

private:
  const uint64_t *succRow(unsigned Node) const {
    return SuccWords.data() + size_t(Node) * WordsPerRow;
  }
  const uint64_t *predRow(unsigned Node) const {
    return PredWords.data() + size_t(Node) * WordsPerRow;
  }

  unsigned N = 0;
  unsigned WordsPerRow = 0;
  bool HavePreds = false;
  std::vector<uint64_t> SuccWords; ///< N rows of WordsPerRow words.
  std::vector<uint64_t> PredWords; ///< Same shape; empty if !HavePreds.
};

} // namespace bsched

#endif // BSCHED_DAG_REACHABILITY_H
