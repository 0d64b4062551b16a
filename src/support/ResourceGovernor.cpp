//===- support/ResourceGovernor.cpp - Compile resource budgets --------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "support/ResourceGovernor.h"

using namespace bsched;

std::string_view bsched::budgetKindName(BudgetKind Kind) {
  switch (Kind) {
  case BudgetKind::Deadline:
    return "deadline";
  case BudgetKind::Ticks:
    return "ticks";
  case BudgetKind::BlockInstructions:
    return "block-instructions";
  case BudgetKind::DagEdges:
    return "dag-edges";
  case BudgetKind::SpillSlots:
    return "spill-slots";
  }
  return "unknown";
}

DiagCode bsched::budgetDiagCode(BudgetKind Kind) {
  switch (Kind) {
  case BudgetKind::Deadline:
    return DiagCode::GovernorDeadlineExceeded;
  case BudgetKind::Ticks:
    return DiagCode::GovernorTickBudgetExceeded;
  case BudgetKind::BlockInstructions:
    return DiagCode::GovernorBlockTooLarge;
  case BudgetKind::DagEdges:
    return DiagCode::GovernorDagTooDense;
  case BudgetKind::SpillSlots:
    return DiagCode::GovernorSpillBudgetExceeded;
  }
  return DiagCode::GovernorTickBudgetExceeded;
}

bool bsched::isBudgetDiagCode(DiagCode Code) {
  auto N = static_cast<unsigned>(Code);
  return N >= static_cast<unsigned>(DiagCode::GovernorDeadlineExceeded) &&
         N <= static_cast<unsigned>(DiagCode::GovernorSpillBudgetExceeded);
}

ResourceGovernor::ResourceGovernor(const ResourceBudget &Budget)
    : Limits(Budget) {
  if (Limits.DeadlineMs > 0.0)
    Start = std::chrono::steady_clock::now();
}

void ResourceGovernor::beginAttempt() {
  Ticks = 0;
  IsTripped = false;
  TripValue = TripLimit = 0;
}

bool ResourceGovernor::poll() {
  if (IsTripped)
    return false;
  ++Ticks;
  if (Limits.MaxTicks != 0 && Ticks > Limits.MaxTicks) {
    trip(BudgetKind::Ticks, Ticks, Limits.MaxTicks);
    return false;
  }
  if (Limits.DeadlineMs > 0.0 && (Ticks & 1023) == 0) {
    double ElapsedMs = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
    if (ElapsedMs > Limits.DeadlineMs) {
      trip(BudgetKind::Deadline, static_cast<uint64_t>(ElapsedMs),
           static_cast<uint64_t>(Limits.DeadlineMs));
      return false;
    }
  }
  return true;
}

bool ResourceGovernor::admit(BudgetKind Kind, uint64_t Value) {
  if (IsTripped)
    return false;
  uint64_t Limit = 0;
  switch (Kind) {
  case BudgetKind::BlockInstructions:
    Limit = Limits.MaxInstructionsPerBlock;
    break;
  case BudgetKind::DagEdges:
    Limit = Limits.MaxDagEdges;
    break;
  case BudgetKind::SpillSlots:
    Limit = Limits.MaxSpillSlots;
    break;
  case BudgetKind::Deadline:
  case BudgetKind::Ticks:
    return true; // Enforced by poll(), not admission.
  }
  if (Limit == 0 || Value <= Limit)
    return true;
  trip(Kind, Value, Limit);
  return false;
}

void ResourceGovernor::trip(BudgetKind Kind, uint64_t Value,
                            uint64_t Limit) {
  IsTripped = true;
  TripKind = Kind;
  TripValue = Value;
  TripLimit = Limit;
}

Diagnostic ResourceGovernor::diagnostic(std::string_view What) const {
  std::string Message;
  std::string Where(What);
  switch (TripKind) {
  case BudgetKind::Deadline:
    Message = "wall-clock deadline of " +
              std::to_string(static_cast<uint64_t>(Limits.DeadlineMs)) +
              "ms exceeded compiling " + Where;
    break;
  case BudgetKind::Ticks:
    Message = "work budget of " + std::to_string(TripLimit) +
              " cancellation ticks exceeded compiling " + Where;
    break;
  case BudgetKind::BlockInstructions:
    Message = Where + " exceeds the instruction budget: " +
              std::to_string(TripValue) + " instructions > limit " +
              std::to_string(TripLimit);
    break;
  case BudgetKind::DagEdges:
    Message = "dependence DAG of " + Where + " exceeds the edge budget: " +
              std::to_string(TripValue) + " edges > limit " +
              std::to_string(TripLimit);
    break;
  case BudgetKind::SpillSlots:
    Message = "spill code of " + Where + " exceeds the slot budget: " +
              std::to_string(TripValue) + " slots > limit " +
              std::to_string(TripLimit);
    break;
  }
  return {0, 0, std::move(Message), Severity::Error,
          budgetDiagCode(TripKind)};
}
