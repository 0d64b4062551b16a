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
/// There is one timing model (DESIGN.md §3n): a block is decoded once
/// (DecodedBlock) and run once per latency draw, and simulateBlock is a
/// decode plus one run.
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

  uint64_t BlockRuns = 0;       ///< Simulated block executions.
  uint64_t Cycles = 0;          ///< Total simulated cycles.
  uint64_t InterlockCycles = 0; ///< Cycles in which nothing issued.
  uint64_t Instructions = 0;    ///< Instructions issued.
  uint64_t Loads = 0;           ///< Dynamic loads issued.
  HistogramData LoadLatency;      ///< Sampled latency of each dynamic load.
  HistogramData OutstandingLoads; ///< In-flight loads when each load issues.

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
/// once, then run() once per latency draw; runs reuse the ready-time
/// vector and the in-flight load list, so they allocate nothing once warm.
class DecodedBlock {
public:
  /// Decodes \p BB, taking non-load latencies from \p Ops. Reuses this
  /// object's storage; any register operand is accepted, virtual or
  /// physical.
  void decode(const BasicBlock &BB, const LatencyModel &Ops);

  /// Simulates one execution of the decoded block on \p Processor with
  /// latencies drawn from \p Memory via \p R. \p Obs, when non-null,
  /// tallies the run's counters and per-load histogram samples.
  BlockSimResult run(const ProcessorModel &Processor,
                     const MemorySystem &Memory, Rng &R,
                     SimInstruments *Obs = nullptr);

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

  struct InFlightLoad {
    uint64_t Issue;
    uint64_t Complete;
  };

  static uint64_t advancePastLengthBlocks(
      uint64_t T, const std::vector<InFlightLoad> &Loads, unsigned Limit);
  static uint64_t advancePastOutstandingLimit(
      uint64_t T, const std::vector<InFlightLoad> &Loads, unsigned Limit);

  std::vector<Step> Steps;
  uint32_t NumRegs = 0;

  // Decode scratch: a sparse set numbering registers with small ids, and
  // the operands of every other register, numbered after the loop.
  std::vector<uint32_t> SparseIndex;
  std::vector<uint32_t> DenseKeys;
  std::vector<std::pair<uint32_t, uint32_t>> WideOperands;

  // Run scratch.
  std::vector<uint64_t> ReadyAt;
  std::vector<InFlightLoad> InFlight;
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
