//===- support/ResourceGovernor.h - Compile resource budgets ---*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource governance for the compile pipeline (DESIGN.md §3i): a
/// ResourceBudget bounds how much work one kernel may consume, and a
/// per-compile ResourceGovernor enforces it through cheap cancellation
/// points (`poll()`) at the stage loop heads and size admissions
/// (`admit()`) at allocation decisions. A tripped governor makes the
/// pipeline abandon the kernel with a structured BS80x diagnostic — or
/// retry it at a deterministically degraded level — instead of running
/// unbounded; the experiment engine then isolates the overrun exactly
/// like any other per-kernel fault.
///
/// Determinism: MaxTicks counts cancellation points, so its trips (and the
/// resulting exact -> union-find -> certify-off degradation ladder) are a
/// pure function of the inputs — same kernel, same budget, same fallback,
/// bit-identical schedules, serial or parallel. DeadlineMs reads the wall
/// clock (every 1024th poll) and is the one deliberately non-deterministic
/// limit; harnesses that compare runs bit-for-bit use MaxTicks.
///
/// A governor is used by one compile on one thread; stages receive it as a
/// nullable pointer and treat null as "unlimited" at zero cost.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SUPPORT_RESOURCEGOVERNOR_H
#define BSCHED_SUPPORT_RESOURCEGOVERNOR_H

#include "support/Diagnostic.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace bsched {

/// Which limit a governor tripped on.
enum class BudgetKind : uint8_t {
  Deadline,          ///< Wall-clock DeadlineMs (BS800).
  Ticks,             ///< Deterministic MaxTicks (BS801).
  BlockInstructions, ///< MaxInstructionsPerBlock (BS802).
  DagEdges,          ///< MaxDagEdges (BS803).
  SpillSlots,        ///< MaxSpillSlots (BS805).
};

/// "deadline", "ticks", ...
std::string_view budgetKindName(BudgetKind Kind);

/// The stable diagnostic code a trip of \p Kind reports (BS800-BS803,
/// BS805).
DiagCode budgetDiagCode(BudgetKind Kind);

/// True for the BS800-BS805 range — CLIs map these to the distinct
/// budget-exceeded exit code.
bool isBudgetDiagCode(DiagCode Code);

/// Per-compile resource limits. Zero means unlimited; a
/// default-constructed budget is inactive and costs nothing.
struct ResourceBudget {
  /// Wall-clock budget for one kernel, in milliseconds. Checked every
  /// 1024th cancellation point; non-deterministic by nature.
  double DeadlineMs = 0.0;

  /// Deterministic work budget: the number of cancellation points one
  /// compile attempt may pass. Stage loops poll roughly once per
  /// instruction processed, so this is of the order of (blocks x
  /// instructions x passes).
  uint64_t MaxTicks = 0;

  /// Largest schedulable block, in instructions (admission-checked before
  /// compilation; also enforced by the parser when it is handed a
  /// governor).
  uint64_t MaxInstructionsPerBlock = 0;

  /// Densest per-block dependence DAG, in edges.
  uint64_t MaxDagEdges = 0;

  /// Accepted, round-tripped and ignored: no limit reads it, so it is
  /// neither part of active() nor of the compile-cache key. The closure
  /// is 2*n^2 bits, bounded through MaxInstructionsPerBlock.
  uint64_t MaxClosureBits = 0;

  /// Most spill slots the allocator may create per block.
  uint64_t MaxSpillSlots = 0;

  /// Allow graceful degradation on overrun: exact -> union-find Chances,
  /// then certify-on -> certify-off as a last resort, recorded in the
  /// result; a rung is tried only when it can change the tripped
  /// resource (runPipeline). Off = any overrun is a hard BS80x failure.
  bool Degrade = true;

  /// True when any limit is set.
  bool active() const {
    return DeadlineMs > 0.0 || MaxTicks != 0 ||
           MaxInstructionsPerBlock != 0 || MaxDagEdges != 0 ||
           MaxSpillSlots != 0;
  }

  friend bool operator==(const ResourceBudget &,
                         const ResourceBudget &) = default;
};

/// Enforces one ResourceBudget over one compile. Stages call poll() at
/// loop heads and admit() at allocation decisions; once either trips, the
/// stage bails out early with a partial (discarded) result and the
/// pipeline converts the trip into a diagnostic or a degraded retry.
/// Not thread-safe: one governor per compile per thread.
class ResourceGovernor {
public:
  /// Starts the wall clock (when DeadlineMs is set).
  explicit ResourceGovernor(const ResourceBudget &Budget);

  const ResourceBudget &budget() const { return Limits; }

  /// True when any limit is set — an inactive governor never trips.
  bool active() const { return Limits.active(); }

  /// Resets the tick count and trip state for a degraded retry. The
  /// deadline keeps its original epoch, so DeadlineMs bounds the *total*
  /// wall time across every attempt at a kernel.
  void beginAttempt();

  /// The cancellation point: counts a tick against MaxTicks and (every
  /// 1024th tick) checks the deadline. Returns false once tripped — the
  /// caller unwinds with whatever partial state it has.
  bool poll();

  /// Admission check: trips (and returns false) when \p Kind has a limit
  /// and \p Value exceeds it.
  bool admit(BudgetKind Kind, uint64_t Value);

  bool tripped() const { return IsTripped; }
  BudgetKind trippedKind() const { return TripKind; }
  uint64_t trippedValue() const { return TripValue; }
  uint64_t trippedLimit() const { return TripLimit; }

  /// Cancellation points passed in the current attempt (deterministic for
  /// deterministic stage code; the figure behind bsched.governor.ticks).
  uint64_t ticks() const { return Ticks; }

  /// The structured BS80x diagnostic for the current trip; \p What names
  /// the unit that overran ("function 'fuzz'"). Only valid once tripped.
  Diagnostic diagnostic(std::string_view What) const;

private:
  void trip(BudgetKind Kind, uint64_t Value, uint64_t Limit);

  ResourceBudget Limits;
  std::chrono::steady_clock::time_point Start;
  uint64_t Ticks = 0;
  bool IsTripped = false;
  BudgetKind TripKind = BudgetKind::Ticks;
  uint64_t TripValue = 0;
  uint64_t TripLimit = 0;
};

} // namespace bsched

#endif // BSCHED_SUPPORT_RESOURCEGOVERNOR_H
