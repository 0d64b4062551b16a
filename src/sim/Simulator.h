//===- sim/Simulator.h - Non-blocking-load block simulator -----*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction-level timing simulator of the paper's section 4.3. It
/// simulates one basic block execution on an in-order, single-issue (or
/// wider) processor with non-blocking loads and hardware interlocks: an
/// instruction stalls only when a source register is not yet available or
/// a processor-model limit (MAX-n / LEN-n) blocks issue. Load latencies
/// are drawn per dynamic load from a MemorySystem.
///
/// Block execution time = issue cycle of the last instruction + 1; loads
/// still outstanding at the end do not add drain time (on a non-blocking
/// machine they would overlap the next block), so all stall cost is
/// charged at consumers. Interlock cycles = cycles - issue slots used.
///
/// A block is decoded once (DecodedBlock) and run once per latency
/// draw, through one loop per processor model (DESIGN.md §3n); unobserved
/// single-issue UNLIMITED runs of one block can also run side by side.
/// simulateBlock is a decode plus one run. A run reads its latencies from
/// an array, so a caller can draw them once and share them
/// (sim/SimDraws.h).
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SIM_SIMULATOR_H
#define BSCHED_SIM_SIMULATOR_H

#include "ir/BasicBlock.h"
#include "obs/Metrics.h"
#include "sched/LatencyModel.h"
#include "sim/MemorySystem.h"
#include "sim/Processor.h"

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace bsched {

/// Timing outcome of one simulated block execution.
struct BlockSimResult {
  uint64_t Cycles = 0;          ///< Total execution cycles.
  uint64_t Instructions = 0;    ///< Instructions issued.
  uint64_t InterlockCycles = 0; ///< Cycles in which no instruction issued.

  /// Fraction of cycles that were interlocks (the paper's TI% / BI%).
  double interlockPercent() const {
    return Cycles == 0 ? 0.0
                       : 100.0 * static_cast<double>(InterlockCycles) /
                             static_cast<double>(Cycles);
  }
};

/// The simulator's metrics (DESIGN.md §3g): `bsched.sim.*` counters and
/// the load-latency / outstanding-load histograms. A simulation tallies
/// into these plain integers and folds them into the registry once, when
/// the instruments are destroyed, so the hot loop makes no atomic update.
/// Construct one per simulation, on the thread that runs it, and pass it
/// to every run.
struct SimInstruments {
  explicit SimInstruments(MetricRegistry &Reg);
  ~SimInstruments();

  SimInstruments(const SimInstruments &) = delete;
  SimInstruments &operator=(const SimInstruments &) = delete;

  /// A histogram tally that counts each sample below Direct by value and
  /// buckets the counts once, in fold(), so a sample costs one increment
  /// instead of a search of the bucket edges. Larger samples go through
  /// HistogramData::record.
  class ValueTally {
  public:
    explicit ValueTally(const std::vector<uint64_t> &UpperEdges);

    void record(uint64_t Value) {
      if (Value < Direct)
        ++ByValue[Value];
      else
        Wide.record(Value);
    }

    /// The tally exactly as HistogramData::record of every sample leaves
    /// it: bucket counts, Count, Sum, Min and Max.
    HistogramData fold() const;

  private:
    static constexpr uint64_t Direct = 256;
    std::array<uint64_t, Direct> ByValue{};
    HistogramData Wide; ///< The samples of Direct and above.
  };

  uint64_t BlockRuns = 0;       ///< Simulated block executions.
  uint64_t Cycles = 0;          ///< Total simulated cycles.
  uint64_t InterlockCycles = 0; ///< Cycles in which nothing issued.
  uint64_t Instructions = 0;    ///< Instructions issued.
  uint64_t Loads = 0;           ///< Dynamic loads issued.
  ValueTally LoadLatency;       ///< Sampled latency of each dynamic load.
  ValueTally OutstandingLoads;  ///< In-flight loads when each load issues.

private:
  // Resolved at construction, so the fold in the destructor only adds.
  Counter BlockRunsMetric, CyclesMetric, InterlockCyclesMetric,
      InstructionsMetric, LoadsMetric;
  Histogram LoadLatencyMetric, OutstandingLoadsMetric;
};

/// A basic block decoded for repeated simulation: registers renumbered
/// densely and each instruction reduced to what the timing model reads
/// (its source and destination register numbers, whether it is a load,
/// and its fixed latency or a marker to sample one from memory). Decode
/// once, then run() once per latency draw, or runAll() once for all of a
/// block's draws; runs reuse their scratch, so they allocate nothing once
/// warm.
///
/// A run is a function of its draws: the k-th sampled load (a load
/// without a known latency) in block order takes the k-th latency it is
/// given, and nothing else in the run is random.
class DecodedBlock {
public:
  /// Decodes \p BB, taking non-load latencies from \p Ops. Reuses this
  /// object's storage; any register operand is accepted, virtual or
  /// physical, and numbered through a RegIndex (ir/RegTable.h).
  void decode(const BasicBlock &BB, const LatencyModel &Ops);

  /// Loads of the decoded block whose latency the memory system draws,
  /// so the latencies one run reads.
  size_t sampledLoads() const { return NumSampled; }

  /// Simulates one execution of the decoded block on \p Processor, the
  /// k-th sampled load taking \p Latencies[k] cycles (each at least 1;
  /// at least sampledLoads() of them). \p Obs, when non-null, tallies
  /// the run's counters and per-load histogram samples.
  BlockSimResult run(const ProcessorModel &Processor,
                     std::span<const unsigned> Latencies,
                     SimInstruments *Obs = nullptr);

  /// The same with the latencies drawn from \p Memory via \p R: one
  /// sampleLatency call per sampled load, in block order, then the run.
  BlockSimResult run(const ProcessorModel &Processor,
                     const MemorySystem &Memory, Rng &R,
                     SimInstruments *Obs = nullptr);

  /// Simulates Out.size() executions at once: run r's k-th sampled load
  /// takes \p Latencies[k * Out.size() + r] cycles (load-major, the
  /// layout of SimDraws; at least sampledLoads() * Out.size() of them),
  /// and Out[r] is run r's result, equal to run() of its latencies.
  /// Unobserved single-issue UNLIMITED runs go side by side, one 32-bit
  /// lane per run, when every cycle of every run stays below 2^31;
  /// every other run takes its processor's loop. \p Obs tallies as
  /// run() does.
  void runAll(const ProcessorModel &Processor,
              std::span<const unsigned> Latencies,
              std::span<BlockSimResult> Out, SimInstruments *Obs = nullptr);

private:
  /// One decoded instruction. Register 0 stands for "no register": it is
  /// never written, so it reads as ready at cycle 0, like any register
  /// the block never writes.
  struct Step {
    std::array<uint32_t, 3> Srcs; ///< Source registers; unused ones are 0.
    uint32_t Dest;                ///< Destination register; 0 if none.
    bool IsLoad;
    uint64_t Latency; ///< Result latency, or SampledLatency for a load
                      ///< whose latency the memory system draws.
  };
  static constexpr uint64_t SampledLatency = ~uint64_t(0);

  /// Runs laid side by side per pass of the step list (a multiple of the
  /// SSE2 vector width of 4 lanes).
  static constexpr unsigned LaneGroup = 16;

  /// One run on a \p Kind processor, its k-th sampled load taking
  /// \p Latencies[First + k * Stride]; tallied into \p Obs when
  /// \p Observed.
  template <ProcessorKind Kind, bool Observed>
  BlockSimResult runOne(const ProcessorModel &Processor,
                        std::span<const unsigned> Latencies, size_t First,
                        size_t Stride, SimInstruments *Obs);

  /// runOne for \p Processor's kind, observed when \p Obs is non-null.
  BlockSimResult runStrided(const ProcessorModel &Processor,
                            std::span<const unsigned> Latencies, size_t First,
                            size_t Stride, SimInstruments *Obs);

  /// Whether runSideBySide of \p Latencies over \p Runs runs keeps
  /// every cycle below 2^31: the step count plus, per step that writes a
  /// register, its largest latency over the runs.
  bool fitsInLanes(std::span<const unsigned> Latencies, size_t Runs) const;

  /// Single-issue UNLIMITED runs, LaneGroup at a time (runAll's layout).
  void runSideBySide(std::span<const unsigned> Latencies,
                     std::span<BlockSimResult> Out);

  std::vector<Step> Steps;
  uint32_t NumRegs = 0;
  size_t NumSampled = 0;
  uint64_t FixedLatencySum = 0; ///< Over steps with a fixed latency.

  // Run scratch.
  std::vector<uint64_t> ReadyAt;
  /// Completion times of a run's loads, ascending from the first still
  /// in flight: MAX-n's limit, and the outstanding-load count of an
  /// observed run.
  std::vector<uint64_t> Completions;
  struct IssuedLoad {
    uint64_t Issue;
    uint64_t Complete;
  };
  /// LEN-n's loads not yet in flight Limit cycles, in issue order.
  std::vector<IssuedLoad> Young;
  std::vector<int32_t> LaneReady; ///< NumRegs rows of LaneGroup lanes.
  std::vector<unsigned> Drawn;    ///< The latencies of a (Memory, Rng) run.
};

/// Simulates one execution of \p BB on \p Processor with latencies drawn
/// from \p Memory via \p R: decodes \p BB and runs it once (callers that
/// run a block many times should keep a DecodedBlock). \p Ops supplies
/// non-load operation latencies (unit by default, as in the paper).
/// \p Obs, when non-null, tallies per-run counters and per-load histogram
/// samples.
BlockSimResult simulateBlock(const BasicBlock &BB,
                             const ProcessorModel &Processor,
                             const MemorySystem &Memory, Rng &R,
                             const LatencyModel &Ops = LatencyModel(),
                             SimInstruments *Obs = nullptr);

} // namespace bsched

#endif // BSCHED_SIM_SIMULATOR_H
