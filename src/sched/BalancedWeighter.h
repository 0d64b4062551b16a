//===- sched/BalancedWeighter.h - Load-level-parallelism weights -*- C++ -*-=//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution (Figure 6): per-load scheduling weights
/// computed from *load level parallelism* instead of an implementation-
/// defined latency.
///
/// For every instruction i:
///   1. G_ind = G - (Pred*(i) u Succ*(i) u {i})       — nodes independent of i
///   2. For each weakly connected component C of G_ind:
///        Chances = max #loads on any directed path within C
///        every load in C gains IssueSlots(i) / Chances
/// Loads start at weight 1 (their own issue slot).
///
/// Intuition: i can be placed behind any of the Chances serial loads of C,
/// so its hiding capacity is split among them; loads in parallel (same
/// path position) share the same capacity without dividing it.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SCHED_BALANCEDWEIGHTER_H
#define BSCHED_SCHED_BALANCEDWEIGHTER_H

#include "dag/Reachability.h"
#include "sched/LatencyModel.h"
#include "sched/Weighter.h"

namespace bsched {

/// How "Chances" (max loads in series per component) is computed.
enum class ChancesMethod {
  /// Exact: longest-path DP counting load nodes. O(V+E) per instruction.
  ExactLongestPath,
  /// The paper's O(n a(n)) trick: label nodes with their level from the
  /// farthest leaf, maintain min/max level per union-find set, and use
  /// (max - min + 1) clamped to the component's load count. Approximates
  /// the exact count when non-loads sit on the longest path.
  UnionFindLevels,
};

/// Balanced scheduling's weight policy.
class BalancedWeighter : public Weighter {
public:
  /// \p SlotsPerCycle is the machine's issue width (section 6 superscalar
  /// extension): a width-W machine consumes W independent instructions
  /// per cycle, so each issue slot hides only 1/W cycles of load latency.
  /// \p HonorKnownLatency enables the section 6 opt-out: loads whose
  /// latency is statically known (Instruction::hasKnownLatency) keep that
  /// fixed weight, absorb no load-level parallelism, and do not dilute
  /// the Chances divisor of the uncertain loads around them.
  /// The unnamed ClosureOptions parameter has no effect
  /// (dag/Reachability.h): G_ind always comes from the row-sweep closure.
  explicit BalancedWeighter(LatencyModel Model = LatencyModel(),
                            ChancesMethod Method =
                                ChancesMethod::ExactLongestPath,
                            double SlotsPerCycle = 1.0,
                            bool HonorKnownLatency = true, ClosureOptions = {})
      : Model(Model), Method(Method), SlotsPerCycle(SlotsPerCycle),
        HonorKnownLatency(HonorKnownLatency) {
    assert(SlotsPerCycle >= 1.0 && "issue width below one");
  }

  void assignWeights(DepDag &Dag) const override;

  /// The hot-path entry: same result as assignWeights(Dag), but all
  /// per-instruction working state (transitive closure, G_ind bit vector,
  /// component partition, level/path DP arrays, weight accumulators) lives
  /// in \p Scratch and is reused — zero heap allocations once the scratch
  /// has warmed up to the largest block seen. One scratch per thread; the
  /// weighter itself stays immutable and shareable.
  void assignWeights(DepDag &Dag, WeighterScratch &Scratch) const override;

  /// The retained pre-optimization implementation (allocating analyses,
  /// identical results bit-for-bit). It is the oracle of the randomized
  /// differential test and of bench_perf_scaling's before/after columns;
  /// not for production use.
  void assignWeightsReference(DepDag &Dag) const;

  std::string name() const override;

  /// Exposes the per-instruction contribution matrix for inspection:
  /// Contributions[i][l] is what instruction i adds to load node l's
  /// weight (the paper's Table 1 rows). Keys are node indices.
  struct Breakdown {
    /// Contribution[Contributor][LoadNode] — absent entries are zero.
    std::vector<std::vector<double>> Contribution;
    /// Final weight per node.
    std::vector<double> Weights;
  };

  /// Runs the algorithm and returns the full contribution breakdown
  /// (also writes weights into \p Dag).
  Breakdown computeBreakdown(DepDag &Dag) const;

private:
  /// The allocation-free Figure 6 kernel shared by assignWeights and
  /// computeBreakdown; \p RecordShare(contributor, load, share) observes
  /// every contribution (a no-op on the hot path). Defined in the .cpp —
  /// every instantiation lives there.
  template <typename RecordFnT>
  void runKernel(DepDag &Dag, WeighterScratch &Scratch,
                 RecordFnT RecordShare) const;

  LatencyModel Model;
  ChancesMethod Method;
  double SlotsPerCycle;
  bool HonorKnownLatency;
};

} // namespace bsched

#endif // BSCHED_SCHED_BALANCEDWEIGHTER_H
