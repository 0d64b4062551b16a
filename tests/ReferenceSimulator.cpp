//===- tests/ReferenceSimulator.cpp - Test-only simulator oracle ------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ReferenceSimulator.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

using namespace bsched;

namespace {

/// An in-flight load.
struct OutstandingLoad {
  uint64_t Issue;
  uint64_t Complete;
};

/// Advances \p T past every LEN-limit blocked interval [Issue + Limit,
/// Complete) of the in-flight loads. Fixpoint loop: jumping past one block
/// can land inside another.
uint64_t advancePastLengthBlocks(uint64_t T,
                                 const std::vector<OutstandingLoad> &Loads,
                                 unsigned Limit) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const OutstandingLoad &L : Loads) {
      if (L.Issue + Limit <= T && T < L.Complete) {
        T = L.Complete;
        Changed = true;
      }
    }
  }
  return T;
}

/// Advances \p T until fewer than \p Limit loads are in flight (MAX-n
/// issuing a new load).
uint64_t advancePastOutstandingLimit(uint64_t T,
                                     std::vector<OutstandingLoad> &Loads,
                                     unsigned Limit) {
  for (;;) {
    unsigned InFlight = 0;
    uint64_t EarliestCompletion = ~uint64_t(0);
    for (const OutstandingLoad &L : Loads) {
      if (L.Complete > T) {
        ++InFlight;
        EarliestCompletion = std::min(EarliestCompletion, L.Complete);
      }
    }
    if (InFlight < Limit)
      return T;
    T = EarliestCompletion;
  }
}

} // namespace

BlockSimResult bsched::referenceSimulateBlock(const BasicBlock &BB,
                                              const ProcessorModel &Processor,
                                              const MemorySystem &Memory,
                                              Rng &R, const LatencyModel &Ops,
                                              ReferenceSimInstruments *Obs) {
  assert(Processor.IssueWidth >= 1 && "issue width must be positive");
  BlockSimResult Result;
  if (BB.empty())
    return Result;

  uint64_t NumLoads = 0;

  std::unordered_map<uint32_t, uint64_t> RegReady;
  std::vector<OutstandingLoad> Loads;

  uint64_t CurrentCycle = 0;
  unsigned SlotsUsed = 0;
  uint64_t CyclesWithIssue = 0;
  bool IssuedThisCycle = false;

  for (const Instruction &I : BB) {
    // Earliest issue: current cycle (or next, if this cycle's slots are
    // exhausted), then wait for all source registers.
    uint64_t T = SlotsUsed < Processor.IssueWidth ? CurrentCycle
                                                  : CurrentCycle + 1;
    for (Reg Src : I.sources()) {
      auto It = RegReady.find(Src.rawBits());
      if (It != RegReady.end())
        T = std::max(T, It->second);
    }

    // Processor-model limits.
    if (Processor.Kind == ProcessorKind::MaxLength)
      T = advancePastLengthBlocks(T, Loads, Processor.Limit);
    if (Processor.Kind == ProcessorKind::MaxOutstanding && I.isLoad())
      T = advancePastOutstandingLimit(T, Loads, Processor.Limit);

    // Issue.
    if (T > CurrentCycle) {
      CurrentCycle = T;
      SlotsUsed = 0;
      IssuedThisCycle = false;
    }
    ++SlotsUsed;
    ++Result.Instructions;
    if (!IssuedThisCycle) {
      ++CyclesWithIssue;
      IssuedThisCycle = true;
    }

    // Effects.
    if (I.isLoad()) {
      // Known-latency loads (section 6: e.g. a second access to a cache
      // line) bypass the uncertain memory system.
      uint64_t Latency = I.hasKnownLatency() ? I.knownLatency()
                                             : Memory.sampleLatency(R);
      uint64_t Complete = T + Latency;
      RegReady[I.dest().rawBits()] = Complete;
      ++NumLoads;
      if (Obs) {
        Obs->LoadLatency.record(Latency);
        // In-flight count at issue, before this load joins the list
        // (completed entries linger until the lazy prune — filter them).
        uint64_t InFlight = 0;
        for (const OutstandingLoad &L : Loads)
          InFlight += L.Complete > T;
        Obs->OutstandingLoads.record(InFlight);
      }
      Loads.push_back({T, Complete});
    } else if (I.hasDest()) {
      uint64_t Latency = static_cast<uint64_t>(
          std::llround(Ops.opLatency(I.opcode())));
      RegReady[I.dest().rawBits()] = T + std::max<uint64_t>(Latency, 1);
    }

    // Keep the in-flight list small: completed loads can no longer block
    // anything at or after the current cycle.
    if (Loads.size() > 16)
      std::erase_if(Loads, [&](const OutstandingLoad &L) {
        return L.Complete <= CurrentCycle;
      });
  }

  Result.Cycles = CurrentCycle + 1;
  Result.InterlockCycles = Result.Cycles - CyclesWithIssue;
  if (Obs) {
    Obs->BlockRuns.add();
    Obs->Cycles.add(Result.Cycles);
    Obs->InterlockCycles.add(Result.InterlockCycles);
    Obs->Instructions.add(Result.Instructions);
    Obs->Loads.add(NumLoads);
  }
  return Result;
}
