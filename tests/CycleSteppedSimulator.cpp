//===- tests/CycleSteppedSimulator.cpp - Cycle-by-cycle oracle -------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "CycleSteppedSimulator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

using namespace bsched;

BlockSimResult bsched::cycleSteppedSimulateBlock(
    const BasicBlock &BB, const ProcessorModel &Processor,
    std::span<const unsigned> Latencies, const LatencyModel &Ops) {
  BlockSimResult Result;
  if (BB.empty())
    return Result;

  // The first cycle at which each written register can be read; a
  // register the block has not written is ready from cycle 0.
  std::map<uint32_t, uint64_t> ReadyAt;
  struct IssuedLoad {
    uint64_t Issue;
    uint64_t Complete;
  };
  std::vector<IssuedLoad> Loads; // Every load issued so far.
  size_t NextLatency = 0;

  auto SourcesReady = [&](const Instruction &I, uint64_t Cycle) {
    for (Reg Src : I.sources()) {
      auto It = ReadyAt.find(Src.rawBits());
      if (It != ReadyAt.end() && It->second > Cycle)
        return false;
    }
    return true;
  };
  auto InFlight = [](const IssuedLoad &L, uint64_t Cycle) {
    return L.Issue <= Cycle && Cycle < L.Complete;
  };
  auto LimitAllows = [&](const Instruction &I, uint64_t Cycle) {
    switch (Processor.Kind) {
    case ProcessorKind::Unlimited:
      return true;
    case ProcessorKind::MaxOutstanding: {
      if (!I.isLoad())
        return true;
      size_t Count = 0;
      for (const IssuedLoad &L : Loads)
        Count += InFlight(L, Cycle);
      return Count < Processor.Limit;
    }
    case ProcessorKind::MaxLength:
      for (const IssuedLoad &L : Loads)
        if (InFlight(L, Cycle) && Cycle - L.Issue >= Processor.Limit)
          return false;
      return true;
    }
    return false;
  };

  size_t Next = 0; // The next instruction in program order.
  uint64_t LastIssueCycle = 0;
  uint64_t CyclesWithIssue = 0;
  for (uint64_t Cycle = 0; Next != BB.size(); ++Cycle) {
    unsigned Slots = 0;
    while (Next != BB.size() && Slots < Processor.IssueWidth &&
           SourcesReady(BB[Next], Cycle) && LimitAllows(BB[Next], Cycle)) {
      const Instruction &I = BB[Next++];
      ++Slots;
      if (I.isLoad()) {
        const uint64_t Latency = I.hasKnownLatency()
                                     ? I.knownLatency()
                                     : Latencies[NextLatency++];
        ReadyAt[I.dest().rawBits()] = Cycle + Latency;
        Loads.push_back({Cycle, Cycle + Latency});
      } else if (I.hasDest()) {
        const long Rounded = std::lround(Ops.opLatency(I.opcode()));
        ReadyAt[I.dest().rawBits()] =
            Cycle + static_cast<uint64_t>(std::max(Rounded, 1L));
      }
    }
    if (Slots != 0) {
      ++CyclesWithIssue;
      LastIssueCycle = Cycle;
    }
  }

  Result.Instructions = BB.size();
  Result.Cycles = LastIssueCycle + 1;
  Result.InterlockCycles = Result.Cycles - CyclesWithIssue;
  return Result;
}
