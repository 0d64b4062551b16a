//===- sched/ListScheduler.h - Bottom-up list scheduler --------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The list scheduler shared by the traditional and balanced schedulers
/// (paper section 4.1). It is a bottom-up scheduler: instructions are
/// picked from the DAG leaves toward the roots and the final order is the
/// reverse of the pick order.
///
/// Priorities and heuristics, exactly as the paper describes:
///  - priority(i) = weight(i) + max priority over i's successors;
///  - ready-list insertion is *deferred* until every scheduled consumer of
///    a node has had the node's latency satisfied, inserting virtual
///    no-ops on starvation (stripped before emission — the machines use
///    hardware interlocks);
///  - ties are broken by (1) largest consumed-minus-defined register
///    count, (2) most nodes newly exposed for scheduling, (3) earliest
///    generation order.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SCHED_LISTSCHEDULER_H
#define BSCHED_SCHED_LISTSCHEDULER_H

#include "sched/Schedule.h"

namespace bsched {

class MetricRegistry;
class ResourceGovernor;

/// Options for the shared list scheduler.
struct SchedulerOptions {
  /// Instructions per issue slot (1 = the paper's machine; >1 models the
  /// section 6 superscalar extension).
  unsigned IssueWidth = 1;

  /// Optional metric sink (DESIGN.md §3g). When set, each pass records
  /// `bsched.sched.passes`, `bsched.sched.virtual_nops`, and a
  /// `bsched.sched.ready_list_occupancy` histogram sampled at every pick.
  MetricRegistry *Metrics = nullptr;

  /// Optional resource governor polled once per scheduling step (and per
  /// certifier check when the schedule is certified). When it trips,
  /// scheduleDag returns a partial schedule; callers must check
  /// Governor->tripped() before using the result.
  ResourceGovernor *Governor = nullptr;
};

/// Computes the priority of every node: weight plus the maximum successor
/// priority (longest weighted path to a leaf). Exposed for tests.
std::vector<double> computePriorities(const DepDag &Dag);

/// Schedules \p Dag (whose weights must already be assigned by a Weighter)
/// and returns the final instruction order.
Schedule scheduleDag(const DepDag &Dag, const SchedulerOptions &Options = {});

} // namespace bsched

#endif // BSCHED_SCHED_LISTSCHEDULER_H
