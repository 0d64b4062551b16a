//===- sched/ListScheduler.cpp - Bottom-up list scheduler -------------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "sched/ListScheduler.h"

#include "obs/Metrics.h"
#include "support/ResourceGovernor.h"

#include <algorithm>

using namespace bsched;

std::vector<double> bsched::computePriorities(const DepDag &Dag) {
  unsigned N = Dag.size();
  std::vector<double> Priority(N, 0.0);
  // Edges point forward in index order, so a reverse sweep visits all
  // successors before each node.
  for (unsigned I = N; I-- > 0;) {
    double BestSucc = 0.0;
    for (const DepEdge &E : Dag.succs(I))
      BestSucc = std::max(BestSucc, Priority[E.Other]);
    Priority[I] = Dag.weight(I) + BestSucc;
  }
  return Priority;
}

namespace {

/// Consumed-minus-defined register count: the paper's first tie-break,
/// which favours instructions that shrink register pressure.
int registerPressureDelta(const Instruction &I) {
  // Count distinct source registers (reading the same register twice
  // consumes one value, not two).
  std::array<uint32_t, 3> Seen{};
  unsigned NumDistinct = 0;
  for (Reg Src : I.sources()) {
    bool Duplicate = false;
    for (unsigned K = 0; K != NumDistinct; ++K)
      Duplicate |= Seen[K] == Src.rawBits();
    if (!Duplicate)
      Seen[NumDistinct++] = Src.rawBits();
  }
  return static_cast<int>(NumDistinct) - (I.hasDest() ? 1 : 0);
}

} // namespace

Schedule bsched::scheduleDag(const DepDag &Dag,
                             const SchedulerOptions &Options) {
  assert(Options.IssueWidth >= 1 && "issue width must be positive");
  unsigned N = Dag.size();
  Schedule Result;
  Result.Order.reserve(N);
  if (N == 0)
    return Result;

  Counter Passes;
  Histogram ReadyOccupancy;
  if (Options.Metrics) {
    Passes = Options.Metrics->counter("bsched.sched.passes");
    ReadyOccupancy = Options.Metrics->histogram(
        "bsched.sched.ready_list_occupancy", {1, 2, 4, 8, 16, 32, 64});
  }
  Passes.add();

  std::vector<double> Priority = computePriorities(Dag);
  std::vector<int> PressureDelta(N);
  for (unsigned I = 0; I != N; ++I)
    PressureDelta[I] = registerPressureDelta(Dag.instruction(I));

  // Bottom-up state. "Reverse slot" counts issue slots from the end of the
  // block; node ReadyAt[i] is the earliest reverse slot that keeps i far
  // enough in front of all its already-scheduled consumers.
  std::vector<unsigned> SuccRemaining(N);
  std::vector<double> ReadyAt(N, 0.0);

  // Number of predecessors that scheduling I would newly expose — the
  // paper's second tie-break ("more instructions to select from").
  auto NewlyExposed = [&](unsigned I) {
    unsigned Count = 0;
    for (const DepEdge &E : Dag.preds(I))
      Count += SuccRemaining[E.Other] == 1;
    return Count;
  };

  // Returns true if candidate A beats candidate B.
  auto Beats = [&](unsigned A, unsigned B) {
    if (Priority[A] != Priority[B])
      return Priority[A] > Priority[B];
    if (PressureDelta[A] != PressureDelta[B])
      return PressureDelta[A] > PressureDelta[B];
    unsigned ExposedA = NewlyExposed(A), ExposedB = NewlyExposed(B);
    if (ExposedA != ExposedB)
      return ExposedA > ExposedB;
    // "Earliest generated" tie-break, expressed for a bottom-up pass: the
    // node picked now lands *latest* in the final order, so preferring the
    // higher index leaves the earliest-generated instruction to be placed
    // first in the emitted schedule (ties preserve program order).
    return A > B;
  };

  constexpr double Eps = 1e-9;
  std::vector<unsigned> ReverseOrder;
  ReverseOrder.reserve(N);
  std::vector<unsigned> PlacedSlot(N, 0); // Reverse slot each node landed in.
  double ReverseSlot = 0.0;
  unsigned SlotsUsedThisCycle = 0;

  // The pending list: every node whose successors are all scheduled but
  // which is not yet placed, max-scanned in full each pick.
  std::vector<unsigned> Pending;

  for (unsigned I = 0; I != N; ++I) {
    SuccRemaining[I] = static_cast<unsigned>(Dag.succs(I).size());
    if (SuccRemaining[I] == 0)
      Pending.push_back(I);
  }

  while (ReverseOrder.size() != N) {
    if (Options.Governor && !Options.Governor->poll())
      return Result; // Partial; caller must check Governor->tripped().

    // Pick the best ready candidate by scanning the full pending list.
    if (Options.Metrics)
      ReadyOccupancy.record(Pending.size());
    int Best = -1;
    size_t BestPos = 0;
    for (size_t Pos = 0; Pos != Pending.size(); ++Pos) {
      unsigned Candidate = Pending[Pos];
      if (ReadyAt[Candidate] > ReverseSlot + Eps)
        continue; // Deferred: its latency toward a consumer is unmet.
      if (Best < 0 || Beats(Candidate, static_cast<unsigned>(Best))) {
        Best = static_cast<int>(Candidate);
        BestPos = Pos;
      }
    }

    if (Best < 0) {
      // Starvation: emit a virtual no-op issue slot and retry.
      ++Result.NumVirtualNops;
      ReverseSlot += 1.0;
      SlotsUsedThisCycle = 0;
      continue;
    }

    unsigned Node = static_cast<unsigned>(Best);
    ReverseOrder.push_back(Node);
    PlacedSlot[Node] = static_cast<unsigned>(ReverseSlot + Eps);
    // Swap-and-pop: selection always scans the whole pending list and the
    // Beats relation is a strict total order, so list order is irrelevant
    // and O(1) removal replaces the O(n) erase(find(...)).
    Pending[BestPos] = Pending.back();
    Pending.pop_back();

    for (const DepEdge &E : Dag.preds(Node)) {
      unsigned Pred = E.Other;
      // A data consumer must trail its producer by the producer's weight;
      // ordering-only dependences need a single slot.
      double Gap =
          E.Kind == DepKind::Data ? std::max(1.0, Dag.weight(Pred)) : 1.0;
      ReadyAt[Pred] = std::max(ReadyAt[Pred], ReverseSlot + Gap);
      assert(SuccRemaining[Pred] > 0 && "successor count underflow");
      if (--SuccRemaining[Pred] == 0)
        Pending.push_back(Pred);
    }

    if (++SlotsUsedThisCycle == Options.IssueWidth) {
      ReverseSlot += 1.0;
      SlotsUsedThisCycle = 0;
    }
  }

  Result.Order.assign(ReverseOrder.rbegin(), ReverseOrder.rend());

  // Convert reverse slots to forward issue cycles: the node placed deepest
  // (largest reverse slot) issues first, at cycle 0.
  unsigned MaxSlot = 0;
  for (unsigned Slot : PlacedSlot)
    MaxSlot = std::max(MaxSlot, Slot);
  Result.IssueCycle.resize(N);
  for (unsigned I = 0; I != N; ++I)
    Result.IssueCycle[I] = MaxSlot - PlacedSlot[I];

  if (Options.Metrics && Result.NumVirtualNops != 0)
    Options.Metrics->counter("bsched.sched.virtual_nops")
        .add(Result.NumVirtualNops);

  assert(isValidSchedule(Dag, Result) && "scheduler produced invalid order");
  return Result;
}
