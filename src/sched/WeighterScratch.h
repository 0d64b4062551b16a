//===- sched/WeighterScratch.h - Reusable weighting workspace --*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The balanced-weighting kernel's workspace (DESIGN.md §3h): every buffer
/// the per-instruction loop needs — the transitive closure, the G_ind bit
/// vector, the epoch-stamped DAG-analysis scratch, and the weight
/// accumulators — allocated once and reused across instructions, blocks,
/// and whole compilations. A weighter never owns one (weighters stay
/// immutable and shareable across threads); callers own the scratch and
/// pass it down, one per thread. The pipeline keeps one per serial compile
/// (and one per worker thread when a pool compiles blocks in parallel);
/// dropping a scratch and starting fresh is always correct, just slower.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SCHED_WEIGHTERSCRATCH_H
#define BSCHED_SCHED_WEIGHTERSCRATCH_H

#include "dag/DagUtils.h"
#include "dag/Reachability.h"
#include "support/BitVector.h"

#include <cstdint>
#include <vector>

namespace bsched {

class ResourceGovernor;

/// Reusable workspace for BalancedWeighter's scratch entry points.
class WeighterScratch {
public:
  /// Number of assignWeights/computeBreakdown runs this scratch has
  /// served. Anything above one means buffers were reused rather than
  /// reallocated — the figure behind bsched.sched.weighter_scratch_reuses.
  uint64_t uses() const { return Uses; }

  /// True once the scratch has served at least one run (its buffers are
  /// warm for the next block).
  bool warm() const { return Uses != 0; }

private:
  friend class BalancedWeighter;

  TransitiveClosure Closure;    ///< Pred*/Succ* rows, recomputed per DAG.
  BitVector Independent;        ///< G_ind of the current instruction.
  std::vector<char> Uncertain;  ///< Per-node uncertain-load flags.
  BitVector UncertainBits;      ///< Same flags as a word-testable mask.
  std::vector<double> Weights;  ///< Weight accumulators.
  DagScratch Dag;               ///< Components/levels/longest-path state.

  /// One-entry Chances memo: the previous contributor's G_ind and the
  /// chances its analysis produced, per uncertain node. Chain-adjacent
  /// contributors often share G_ind exactly (for A -> B with no other
  /// succ/pred between them, Pred* ∪ Succ* ∪ {self} coincide), and equal
  /// G_ind means an identical component partition, so the whole analysis
  /// can be skipped — shares are still added one contributor at a time in
  /// ascending order, keeping the accumulated doubles bit-identical to
  /// the reference. Validity is tracked per kernel run, never across DAGs.
  BitVector PrevIndependent;
  std::vector<unsigned> NodeChances;
  uint64_t Uses = 0;

public:
  /// Optional resource governor polled once per instruction by the
  /// weighting kernel. When it trips, weighting bails with partial
  /// weights; callers must check Governor->tripped() before scheduling
  /// against the DAG. Kept last: the hot buffers above retain their
  /// pre-governance offsets.
  ResourceGovernor *Governor = nullptr;
};

} // namespace bsched

#endif // BSCHED_SCHED_WEIGHTERSCRATCH_H
