//===- sim/Simulator.cpp - Non-blocking-load block simulator ----------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include <algorithm>
#include <cmath>

using namespace bsched;

//===----------------------------------------------------------------------===
// Instruments
//===----------------------------------------------------------------------===

namespace {

const std::vector<uint64_t> LoadLatencyEdges = {1,  2,  3,  4,  6,  8,  12,
                                                16, 24, 32, 48, 64, 96, 128};
const std::vector<uint64_t> OutstandingLoadsEdges = {0, 1,  2,  3,  4, 6,
                                                     8, 12, 16, 24, 32};

} // namespace

SimInstruments::ValueTally::ValueTally(
    const std::vector<uint64_t> &UpperEdges) {
  Wide.UpperEdges = UpperEdges;
  Wide.Counts.assign(UpperEdges.size() + 1, 0);
}

HistogramData SimInstruments::ValueTally::fold() const {
  HistogramData Tally = Wide;
  // Values rise through the loop, so the bucket (the first edge >= the
  // value, as in record) only moves forward.
  size_t Bucket = 0;
  for (uint64_t Value = 0; Value != Direct; ++Value) {
    const uint64_t N = ByValue[Value];
    if (N == 0)
      continue;
    while (Bucket != Tally.UpperEdges.size() &&
           Tally.UpperEdges[Bucket] < Value)
      ++Bucket;
    Tally.Counts[Bucket] += N;
    Tally.Min = Tally.Count == 0 ? Value : std::min(Tally.Min, Value);
    Tally.Max = std::max(Tally.Max, Value);
    Tally.Count += N;
    Tally.Sum += Value * N;
  }
  return Tally;
}

SimInstruments::SimInstruments(MetricRegistry &Reg)
    : LoadLatency(LoadLatencyEdges), OutstandingLoads(OutstandingLoadsEdges),
      BlockRunsMetric(Reg.counter("bsched.sim.block_runs")),
      CyclesMetric(Reg.counter("bsched.sim.cycles")),
      InterlockCyclesMetric(Reg.counter("bsched.sim.interlock_cycles")),
      InstructionsMetric(Reg.counter("bsched.sim.instructions")),
      LoadsMetric(Reg.counter("bsched.sim.loads")),
      LoadLatencyMetric(
          Reg.histogram("bsched.sim.load_latency_cycles", LoadLatencyEdges)),
      OutstandingLoadsMetric(Reg.histogram("bsched.sim.outstanding_loads",
                                           OutstandingLoadsEdges)) {}

SimInstruments::~SimInstruments() {
  BlockRunsMetric.add(BlockRuns);
  CyclesMetric.add(Cycles);
  InterlockCyclesMetric.add(InterlockCycles);
  InstructionsMetric.add(Instructions);
  LoadsMetric.add(Loads);
  LoadLatencyMetric.merge(LoadLatency.fold());
  OutstandingLoadsMetric.merge(OutstandingLoads.fold());
}

//===----------------------------------------------------------------------===
// Decode
//===----------------------------------------------------------------------===

namespace {

/// Registers with an id below this are numbered through a flat table,
/// indexed by (physical, fp, id): every physical register of a validated
/// target (BS500 caps register files at 1024 per class) and the virtual
/// registers of ordinary blocks.
constexpr unsigned DirectIds = 1024;
constexpr unsigned NumDirectKeys = 4 * DirectIds;

/// The flat-table key of \p R, or NumDirectKeys if it has none.
unsigned directKey(Reg R) {
  if (!R.isValid() || R.id() >= DirectIds)
    return NumDirectKeys;
  unsigned Space = (R.isPhysical() ? 2u : 0u) +
                   (R.regClass() == RegClass::Fp ? 1u : 0u);
  return Space * DirectIds + R.id();
}

} // namespace

void DecodedBlock::decode(const BasicBlock &BB, const LatencyModel &Ops) {
  if (SparseIndex.empty())
    SparseIndex.assign(NumDirectKeys, 0);
  Steps.clear();
  DenseKeys.clear();
  WideOperands.clear();

  // Number for the operand at \p Ref (step * 4 + field; field 3 is the
  // destination). A sparse set over the flat table: DenseKeys lists the
  // keys numbered so far, and SparseIndex[Key] is valid only if it points
  // back at Key, so the table is never cleared. Other registers get 0 for
  // now and are numbered after the loop.
  auto numberOf = [&](Reg R, uint32_t Ref) -> uint32_t {
    unsigned Key = directKey(R);
    if (Key == NumDirectKeys) {
      WideOperands.push_back({R.rawBits(), Ref});
      return 0;
    }
    uint32_t Index = SparseIndex[Key];
    if (Index >= DenseKeys.size() || DenseKeys[Index] != Key) {
      Index = static_cast<uint32_t>(DenseKeys.size());
      SparseIndex[Key] = Index;
      DenseKeys.push_back(Key);
    }
    return Index + 1;
  };

  // max(llround(opLatency), 1) per opcode, rounded on first use; 0 marks
  // an opcode not yet seen.
  std::array<uint64_t, NumOpcodes> OpLatency{};

  Steps.reserve(BB.size());
  for (const Instruction &I : BB) {
    const uint32_t Ref = static_cast<uint32_t>(Steps.size()) * 4;
    Step S{{0, 0, 0}, 0, I.isLoad(), 0};
    unsigned Field = 0;
    for (Reg Src : I.sources()) {
      S.Srcs[Field] = numberOf(Src, Ref + Field);
      ++Field;
    }
    if (S.IsLoad) {
      // Known-latency loads (section 6: e.g. a second access to a cache
      // line) bypass the uncertain memory system.
      S.Dest = numberOf(I.dest(), Ref + 3);
      S.Latency = I.hasKnownLatency() ? I.knownLatency() : SampledLatency;
    } else if (I.hasDest()) {
      S.Dest = numberOf(I.dest(), Ref + 3);
      uint64_t &Latency = OpLatency[static_cast<unsigned>(I.opcode())];
      if (Latency == 0)
        Latency = std::max<uint64_t>(
            static_cast<uint64_t>(std::llround(Ops.opLatency(I.opcode()))),
            1);
      S.Latency = Latency;
    }
    Steps.push_back(S);
  }

  // Registers outside the flat table (virtual ids of 1024 and up, or the
  // invalid register in an unverified block) are numbered after the
  // table's, one number per distinct encoding.
  NumRegs = static_cast<uint32_t>(DenseKeys.size()) + 1;
  std::sort(WideOperands.begin(), WideOperands.end());
  for (size_t K = 0; K != WideOperands.size(); ++K) {
    auto [Bits, Ref] = WideOperands[K];
    if (K == 0 || Bits != WideOperands[K - 1].first)
      ++NumRegs;
    Step &S = Steps[Ref / 4];
    (Ref % 4 == 3 ? S.Dest : S.Srcs[Ref % 4]) = NumRegs - 1;
  }
}

//===----------------------------------------------------------------------===
// Run
//===----------------------------------------------------------------------===

/// Advances \p T past every LEN-limit blocked interval [Issue + Limit,
/// Complete) of the in-flight loads. Fixpoint loop: jumping past one block
/// can land inside another.
uint64_t
DecodedBlock::advancePastLengthBlocks(uint64_t T,
                                      const std::vector<InFlightLoad> &Loads,
                                      unsigned Limit) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const InFlightLoad &L : Loads) {
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
uint64_t DecodedBlock::advancePastOutstandingLimit(
    uint64_t T, const std::vector<InFlightLoad> &Loads, unsigned Limit) {
  for (;;) {
    unsigned InFlight = 0;
    uint64_t EarliestCompletion = ~uint64_t(0);
    for (const InFlightLoad &L : Loads) {
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

BlockSimResult DecodedBlock::run(const ProcessorModel &Processor,
                                 const MemorySystem &Memory, Rng &R,
                                 SimInstruments *Obs) {
  assert(Processor.IssueWidth >= 1 && "issue width must be positive");
  BlockSimResult Result;
  if (Steps.empty())
    return Result;

  ReadyAt.assign(NumRegs, 0);
  InFlight.clear();
  uint64_t NumLoads = 0;

  uint64_t CurrentCycle = 0;
  unsigned SlotsUsed = 0;
  uint64_t CyclesWithIssue = 0;
  bool IssuedThisCycle = false;

  for (const Step &S : Steps) {
    // Earliest issue: current cycle (or next, if this cycle's slots are
    // exhausted), then wait for all source registers.
    uint64_t T = SlotsUsed < Processor.IssueWidth ? CurrentCycle
                                                  : CurrentCycle + 1;
    T = std::max({T, ReadyAt[S.Srcs[0]], ReadyAt[S.Srcs[1]],
                  ReadyAt[S.Srcs[2]]});

    // Processor-model limits.
    if (Processor.Kind == ProcessorKind::MaxLength)
      T = advancePastLengthBlocks(T, InFlight, Processor.Limit);
    if (Processor.Kind == ProcessorKind::MaxOutstanding && S.IsLoad)
      T = advancePastOutstandingLimit(T, InFlight, Processor.Limit);

    // Issue.
    if (T > CurrentCycle) {
      CurrentCycle = T;
      SlotsUsed = 0;
      IssuedThisCycle = false;
    }
    ++SlotsUsed;
    if (!IssuedThisCycle) {
      ++CyclesWithIssue;
      IssuedThisCycle = true;
    }

    // Effects.
    if (S.IsLoad) {
      uint64_t Latency = S.Latency == SampledLatency
                             ? Memory.sampleLatency(R)
                             : S.Latency;
      uint64_t Complete = T + Latency;
      ReadyAt[S.Dest] = Complete;
      ++NumLoads;
      if (Obs) {
        Obs->LoadLatency.record(Latency);
        // In-flight count at issue, before this load joins the list
        // (completed entries linger until the lazy prune — filter them).
        uint64_t Outstanding = 0;
        for (const InFlightLoad &L : InFlight)
          Outstanding += L.Complete > T;
        Obs->OutstandingLoads.record(Outstanding);
      }
      InFlight.push_back({T, Complete});
    } else if (S.Dest != 0) {
      ReadyAt[S.Dest] = T + S.Latency;
    }

    // Keep the in-flight list small: completed loads can no longer block
    // anything at or after the current cycle.
    if (InFlight.size() > 16)
      std::erase_if(InFlight, [&](const InFlightLoad &L) {
        return L.Complete <= CurrentCycle;
      });
  }

  Result.Instructions = Steps.size();
  Result.Cycles = CurrentCycle + 1;
  Result.InterlockCycles = Result.Cycles - CyclesWithIssue;
  if (Obs) {
    ++Obs->BlockRuns;
    Obs->Cycles += Result.Cycles;
    Obs->InterlockCycles += Result.InterlockCycles;
    Obs->Instructions += Result.Instructions;
    Obs->Loads += NumLoads;
  }
  return Result;
}

BlockSimResult bsched::simulateBlock(const BasicBlock &BB,
                                     const ProcessorModel &Processor,
                                     const MemorySystem &Memory, Rng &R,
                                     const LatencyModel &Ops,
                                     SimInstruments *Obs) {
  // One per thread, so a caller that simulates block after block reuses
  // its storage instead of allocating per call.
  thread_local DecodedBlock Decoded;
  Decoded.decode(BB, Ops);
  return Decoded.run(Processor, Memory, R, Obs);
}
