//===- sched/Weighter.h - Load-weight assignment interface -----*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The policy interface that distinguishes the traditional scheduler from
/// the balanced scheduler. Both share the same list scheduler (paper
/// section 2); only the way load-instruction weights are computed differs.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SCHED_WEIGHTER_H
#define BSCHED_SCHED_WEIGHTER_H

#include "dag/DepDag.h"

#include <string>

namespace bsched {

class WeighterScratch;

/// Assigns scheduling weights to every node of a code DAG.
///
/// Implementations must set a weight for *all* nodes: non-loads get their
/// operation latency; load weights embody the policy under study.
///
/// Weighters are immutable: assignWeights on one instance may be called
/// concurrently from several threads (a pooled pipeline compiles the blocks
/// of a function in parallel, sharing one weighter). All mutable working
/// state lives in the caller's WeighterScratch, one per thread.
class Weighter {
public:
  virtual ~Weighter();

  /// Assigns node weights in place.
  virtual void assignWeights(DepDag &Dag) const = 0;

  /// Scratch-reusing variant: implementations whose working state is worth
  /// reusing across blocks (BalancedWeighter) override this; the default
  /// ignores \p Scratch and forwards to assignWeights(Dag). \p Scratch must
  /// not be shared between concurrent calls.
  virtual void assignWeights(DepDag &Dag, WeighterScratch &Scratch) const;

  /// Human-readable policy name for reports ("traditional(2)", "balanced").
  virtual std::string name() const = 0;
};

} // namespace bsched

#endif // BSCHED_SCHED_WEIGHTER_H
