//===- sim/Simulator.cpp - Non-blocking-load block simulator ----------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "ir/RegTable.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

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

void DecodedBlock::decode(const BasicBlock &BB, const LatencyModel &Ops) {
  Steps.clear();
  NumSampled = 0;
  FixedLatencySum = 0;

  // Register number of an operand: its RegIndex number plus one, since 0
  // pads unused source slots.
  RegIndex Regs;
  auto numberOf = [&](Reg R) { return Regs.insert(R).first + 1; };

  // max(llround(opLatency), 1) per opcode, rounded on first use; 0 marks
  // an opcode not yet seen.
  std::array<uint64_t, NumOpcodes> OpLatency{};

  Steps.reserve(BB.size());
  for (const Instruction &I : BB) {
    Step S{{0, 0, 0}, 0, I.isLoad(), 0};
    unsigned Field = 0;
    for (Reg Src : I.sources())
      S.Srcs[Field++] = numberOf(Src);
    if (S.IsLoad) {
      // Known-latency loads (section 6: e.g. a second access to a cache
      // line) bypass the uncertain memory system.
      S.Dest = numberOf(I.dest());
      S.Latency = I.hasKnownLatency() ? I.knownLatency() : SampledLatency;
      NumSampled += S.Latency == SampledLatency;
    } else if (I.hasDest()) {
      S.Dest = numberOf(I.dest());
      uint64_t &Latency = OpLatency[static_cast<unsigned>(I.opcode())];
      if (Latency == 0)
        Latency = std::max<uint64_t>(
            static_cast<uint64_t>(std::llround(Ops.opLatency(I.opcode()))),
            1);
      S.Latency = Latency;
    }
    if (S.Dest != 0 && S.Latency != SampledLatency)
      FixedLatencySum += std::min(S.Latency, uint64_t(1) << 32);
    Steps.push_back(S);
  }
  NumRegs = Regs.size() + 1;
}

//===----------------------------------------------------------------------===
// Run
//===----------------------------------------------------------------------===

namespace {

/// Adds a load completing at \p Complete to \p Queue[Head..], which is
/// kept ascending: a min-queue whose front is the next load to complete.
/// Loads mostly complete in issue order, so the insertion point is
/// usually at or near the back, and this beat a binary heap on MAX-8
/// (EXPERIMENTS.md).
void pushCompletion(std::vector<uint64_t> &Queue, size_t Head,
                    uint64_t Complete) {
  size_t I = Queue.size();
  Queue.push_back(Complete);
  for (; I != Head && Queue[I - 1] > Complete; --I)
    Queue[I] = Queue[I - 1];
  Queue[I] = Complete;
}

/// Retires every completion at or before \p T from the front of
/// \p Queue[Head..] and returns the loads left, those still in flight at
/// T. Issue times never decrease, so a load complete at one issue is
/// complete at every later one.
size_t retireBy(const std::vector<uint64_t> &Queue, size_t &Head,
                uint64_t T) {
  while (Head != Queue.size() && Queue[Head] <= T)
    ++Head;
  return Queue.size() - Head;
}

} // namespace

template <ProcessorKind Kind, bool Observed>
BlockSimResult DecodedBlock::runOne(const ProcessorModel &Processor,
                                    std::span<const unsigned> Latencies,
                                    size_t First, size_t Stride,
                                    SimInstruments *Obs) {
  BlockSimResult Result;
  if (Steps.empty())
    return Result;
  size_t Next = First; // Where the next sampled load's latency sits.

  ReadyAt.assign(NumRegs, 0);
  Completions.clear();
  size_t Retired = 0; // Completions[Retired..] are in flight.
  // LEN-n: Young[OldestYoung..] have been in flight fewer than Limit
  // cycles; every load before them is overdue, and Overdue is the latest
  // completion among those.
  Young.clear();
  size_t OldestYoung = 0;
  uint64_t Overdue = 0;
  uint64_t NumLoads = 0;

  uint64_t CurrentCycle = 0;
  unsigned SlotsUsed = 0;
  uint64_t CyclesWithIssue = 0;

  for (const Step &S : Steps) {
    // Earliest issue: current cycle (or next, if this cycle's slots are
    // exhausted), then wait for all source registers.
    uint64_t T = SlotsUsed < Processor.IssueWidth ? CurrentCycle
                                                  : CurrentCycle + 1;
    T = std::max({T, ReadyAt[S.Srcs[0]], ReadyAt[S.Srcs[1]],
                  ReadyAt[S.Srcs[2]]});

    // Processor-model limits. LEN-n: nothing issues while a load that has
    // been in flight Limit cycles is outstanding, so T rises to the
    // latest overdue completion until no further load becomes overdue.
    if constexpr (Kind == ProcessorKind::MaxLength) {
      for (;;) {
        while (OldestYoung != Young.size() &&
               Young[OldestYoung].Issue + Processor.Limit <= T)
          Overdue = std::max(Overdue, Young[OldestYoung++].Complete);
        if (Overdue <= T)
          break;
        T = Overdue;
      }
    }
    // MAX-n: a load issues once fewer than Limit loads are in flight.
    size_t Outstanding = 0;
    if constexpr (Kind == ProcessorKind::MaxOutstanding) {
      if (S.IsLoad) {
        Outstanding = retireBy(Completions, Retired, T);
        while (Outstanding >= Processor.Limit) {
          T = Completions[Retired];
          Outstanding = retireBy(Completions, Retired, T);
        }
      }
    } else if constexpr (Observed) {
      if (S.IsLoad)
        Outstanding = retireBy(Completions, Retired, T);
    }

    // Issue.
    if (T > CurrentCycle) {
      CurrentCycle = T;
      SlotsUsed = 0;
    }
    CyclesWithIssue += SlotsUsed == 0;
    ++SlotsUsed;

    // Effects.
    if (S.IsLoad) {
      uint64_t Latency = S.Latency;
      if (Latency == SampledLatency) {
        Latency = Latencies[Next];
        Next += Stride;
      }
      const uint64_t Complete = T + Latency;
      ReadyAt[S.Dest] = Complete;
      if constexpr (Kind == ProcessorKind::MaxLength)
        Young.push_back({T, Complete});
      if constexpr (Kind == ProcessorKind::MaxOutstanding || Observed)
        pushCompletion(Completions, Retired, Complete);
      if constexpr (Observed) {
        ++NumLoads;
        Obs->LoadLatency.record(Latency);
        // Loads in flight at issue, before this one joins them.
        Obs->OutstandingLoads.record(Outstanding);
      }
    } else if (S.Dest != 0) {
      ReadyAt[S.Dest] = T + S.Latency;
    }
  }

  Result.Instructions = Steps.size();
  Result.Cycles = CurrentCycle + 1;
  Result.InterlockCycles = Result.Cycles - CyclesWithIssue;
  if constexpr (Observed) {
    ++Obs->BlockRuns;
    Obs->Cycles += Result.Cycles;
    Obs->InterlockCycles += Result.InterlockCycles;
    Obs->Instructions += Result.Instructions;
    Obs->Loads += NumLoads;
  }
  return Result;
}

BlockSimResult DecodedBlock::runStrided(const ProcessorModel &Processor,
                                        std::span<const unsigned> Latencies,
                                        size_t First, size_t Stride,
                                        SimInstruments *Obs) {
  assert(Processor.IssueWidth >= 1 && "issue width must be positive");
  switch (Processor.Kind) {
  case ProcessorKind::Unlimited:
    return Obs ? runOne<ProcessorKind::Unlimited, true>(Processor, Latencies,
                                                        First, Stride, Obs)
               : runOne<ProcessorKind::Unlimited, false>(
                     Processor, Latencies, First, Stride, Obs);
  case ProcessorKind::MaxOutstanding:
    assert(Processor.Limit >= 1 && "MAX-n needs a positive limit");
    return Obs ? runOne<ProcessorKind::MaxOutstanding, true>(
                     Processor, Latencies, First, Stride, Obs)
               : runOne<ProcessorKind::MaxOutstanding, false>(
                     Processor, Latencies, First, Stride, Obs);
  case ProcessorKind::MaxLength:
    return Obs ? runOne<ProcessorKind::MaxLength, true>(Processor, Latencies,
                                                        First, Stride, Obs)
               : runOne<ProcessorKind::MaxLength, false>(
                     Processor, Latencies, First, Stride, Obs);
  }
  BSCHED_UNREACHABLE("unknown processor kind");
}

BlockSimResult DecodedBlock::run(const ProcessorModel &Processor,
                                 std::span<const unsigned> Latencies,
                                 SimInstruments *Obs) {
  assert(Latencies.size() >= NumSampled && "a latency per sampled load");
  return runStrided(Processor, Latencies, 0, 1, Obs);
}

bool DecodedBlock::fitsInLanes(std::span<const unsigned> Latencies,
                               size_t Runs) const {
  // Each step issues one cycle after the step before it or when a source
  // is ready, so no issue or ready cycle passes the step count plus the
  // latencies of the steps before it.
  uint64_t Bound = Steps.size() + FixedLatencySum;
  for (size_t K = 0; K != NumSampled; ++K) {
    const unsigned *Row = Latencies.data() + K * Runs;
    Bound += *std::max_element(Row, Row + Runs);
  }
  return Bound < (uint64_t(1) << 31);
}

void DecodedBlock::runSideBySide(std::span<const unsigned> Latencies,
                                 std::span<BlockSimResult> Out) {
  // On one issue slot and no load limit, a step issues at max(the issue
  // cycle of the step before it + 1, its sources' ready cycles). Each
  // register keeps a row of LaneGroup ready cycles, one lane per run,
  // and every step is the same few lane-wise operations on fixed-width
  // rows, which the compiler vectorises.
  const size_t Runs = Out.size();
  LaneReady.resize(size_t(NumRegs) * LaneGroup);
  for (size_t Group = 0; Group < Runs; Group += LaneGroup) {
    // A group reads LaneGroup latencies of each sampled load's row: the
    // last group of LaneGroup runs or more starts early enough to end at
    // the row's end, and with fewer runs the lanes past them read 0.
    const size_t First = Runs < LaneGroup ? 0 : std::min(Group, Runs - LaneGroup);
    const size_t Width = std::min<size_t>(Runs, LaneGroup);
    std::fill(LaneReady.begin(), LaneReady.end(), 0);
    int32_t Issue[LaneGroup];
    std::fill_n(Issue, LaneGroup, -1); // The first step issues at cycle 0.
    size_t Row = First;
    for (const Step &S : Steps) {
      const int32_t *A = &LaneReady[S.Srcs[0] * LaneGroup];
      const int32_t *B = &LaneReady[S.Srcs[1] * LaneGroup];
      const int32_t *C = &LaneReady[S.Srcs[2] * LaneGroup];
      for (unsigned L = 0; L != LaneGroup; ++L)
        Issue[L] = std::max(std::max(Issue[L] + 1, A[L]), std::max(B[L], C[L]));
      if (S.Dest == 0)
        continue;
      int32_t Latency[LaneGroup];
      if (S.Latency != SampledLatency) {
        std::fill_n(Latency, LaneGroup, static_cast<int32_t>(S.Latency));
      } else if (Width == LaneGroup) {
        for (unsigned L = 0; L != LaneGroup; ++L)
          Latency[L] = static_cast<int32_t>(Latencies[Row + L]);
        Row += Runs;
      } else {
        for (unsigned L = 0; L != LaneGroup; ++L)
          Latency[L] = L < Width ? static_cast<int32_t>(Latencies[Row + L]) : 0;
        Row += Runs;
      }
      int32_t *D = &LaneReady[S.Dest * LaneGroup];
      for (unsigned L = 0; L != LaneGroup; ++L)
        D[L] = Issue[L] + Latency[L];
    }
    for (size_t L = 0; L != Width; ++L) {
      BlockSimResult &R = Out[First + L];
      R.Instructions = Steps.size();
      R.Cycles = static_cast<uint64_t>(Issue[L]) + 1;
      R.InterlockCycles = R.Cycles - Steps.size();
    }
  }
}

void DecodedBlock::runAll(const ProcessorModel &Processor,
                          std::span<const unsigned> Latencies,
                          std::span<BlockSimResult> Out,
                          SimInstruments *Obs) {
  const size_t Runs = Out.size();
  assert(Latencies.size() >= NumSampled * Runs &&
         "a latency per sampled load and run");
  if (Runs == 0)
    return;
  if (Steps.empty()) {
    std::fill(Out.begin(), Out.end(), BlockSimResult());
    return;
  }
  if (!Obs && Processor.Kind == ProcessorKind::Unlimited &&
      Processor.IssueWidth == 1 && fitsInLanes(Latencies, Runs)) {
    runSideBySide(Latencies, Out);
    return;
  }
  for (size_t R = 0; R != Runs; ++R)
    Out[R] = runStrided(Processor, Latencies, R, Runs, Obs);
}

BlockSimResult DecodedBlock::run(const ProcessorModel &Processor,
                                 const MemorySystem &Memory, Rng &R,
                                 SimInstruments *Obs) {
  Drawn.resize(NumSampled);
  for (unsigned &Latency : Drawn)
    Latency = Memory.sampleLatency(R);
  return run(Processor, Drawn, Obs);
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
