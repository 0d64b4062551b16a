//===- sim/SimDraws.h - The random draws of a simulation run ----*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The random streams of the measurement harness (section 4.3), drawn
/// once and kept. Simulating a block draws one latency stream per run and
/// one bootstrap index sequence. Each is seeded from (seed, block[, run])
/// alone and never depends on the compiled code, so every schedule of
/// every program simulated with one seed on one memory system reads the
/// same draws. A SimDraws table draws a stream the first time a block
/// needs it, extends it when a block with more sampled loads needs more
/// of it, and keeps it for the rest of its life (DESIGN.md §3n).
///
/// Latency streams are keyed by (memory system, seed, block, run count),
/// the memory system by its address: a table must not outlive the memory
/// systems it draws for, and two objects with equal parameters keep
/// separate streams. Bootstrap indices are keyed by (seed, block, run
/// count, resample count). Thread-safe: one mutex, taken once per block.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SIM_SIMDRAWS_H
#define BSCHED_SIM_SIMDRAWS_H

#include "sim/MemorySystem.h"
#include "support/Rng.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <tuple>
#include <vector>

namespace bsched {

class SimDraws {
public:
  /// What simulating one block reads.
  struct BlockDraws {
    /// Runs x Loads latencies: run R's loads take [R * Loads, (R + 1) *
    /// Loads), the first Loads draws of its stream. A copy, since another
    /// thread may extend the stream while this one simulates.
    std::vector<unsigned> Latencies;
    /// Resamples x Runs bootstrap indices, in draw order. Drawn once and
    /// never changed, so they stay valid while the table lives.
    std::span<const uint32_t> BootIndices;
  };

  /// Fills \p Out for block \p Block of a program simulated \p Runs times
  /// on \p Memory with \p Seed, whose runs each read \p Loads latencies,
  /// and bootstrapped to \p Resamples means; reuses \p Out's storage.
  void draw(const MemorySystem &Memory, uint64_t Seed, unsigned Block,
            unsigned Runs, unsigned Resamples, size_t Loads,
            BlockDraws &Out);

  /// The stream run \p Run of block \p Block draws its latencies from.
  static Rng latencyStream(uint64_t Seed, unsigned Block, unsigned Run);

  /// The stream block \p Block draws its bootstrap indices from.
  static Rng bootstrapStream(uint64_t Seed, unsigned Block);

private:
  /// One run's stream: its generator, and the latencies drawn so far.
  struct Stream {
    Rng R;
    std::vector<unsigned> Drawn;
  };

  std::mutex Mutex;
  std::map<std::tuple<uintptr_t, uint64_t, unsigned, unsigned>,
           std::vector<Stream>>
      Latencies;
  std::map<std::tuple<uint64_t, unsigned, unsigned, unsigned>,
           std::vector<uint32_t>>
      BootIndices;
};

} // namespace bsched

#endif // BSCHED_SIM_SIMDRAWS_H
