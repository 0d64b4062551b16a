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
/// separate streams. A key's runs are stored load-major, the k-th draw of
/// run r at k * runs + r, and handed out as a view. Storage never moves
/// once handed out: streams that must grow draw into new storage, and the
/// old storage stays until the table is destroyed. Bootstrap indices are
/// keyed by (seed, block, run count, resample count). Thread-safe: one
/// mutex, taken once per block for the lookup and any extension; the
/// views are read outside it.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SIM_SIMDRAWS_H
#define BSCHED_SIM_SIMDRAWS_H

#include "sim/MemorySystem.h"
#include "support/Rng.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <vector>

namespace bsched {

class SimDraws {
public:
  /// What simulating one block reads. Both views stay valid, and their
  /// values unchanged, while the table lives.
  struct BlockDraws {
    /// Loads x Runs latencies, load-major: run R's K-th latency, the K-th
    /// draw of its stream, is Latencies[K * Runs + R].
    std::span<const unsigned> Latencies;
    /// Resamples x Runs bootstrap indices, in draw order.
    std::span<const uint32_t> BootIndices;
  };

  /// Points \p Out at the draws of block \p Block of a program simulated
  /// \p Runs times on \p Memory with \p Seed, whose runs each read
  /// \p Loads latencies, and bootstrapped to \p Resamples means.
  void draw(const MemorySystem &Memory, uint64_t Seed, unsigned Block,
            unsigned Runs, unsigned Resamples, size_t Loads,
            BlockDraws &Out);

  /// The stream run \p Run of block \p Block draws its latencies from.
  static Rng latencyStream(uint64_t Seed, unsigned Block, unsigned Run);

  /// The stream block \p Block draws its bootstrap indices from.
  static Rng bootstrapStream(uint64_t Seed, unsigned Block);

private:
  /// A key's runs: each run's generator, where its draws stopped, and
  /// every storage the key has drawn into; the last holds Loads rows.
  struct Streams {
    std::vector<Rng> Runs;
    size_t Loads = 0;
    std::vector<std::unique_ptr<unsigned[]>> Storage;
  };

  std::mutex Mutex;
  std::map<std::tuple<uintptr_t, uint64_t, unsigned, unsigned>, Streams>
      Latencies;
  std::map<std::tuple<uint64_t, unsigned, unsigned, unsigned>,
           std::vector<uint32_t>>
      BootIndices;
};

} // namespace bsched

#endif // BSCHED_SIM_SIMDRAWS_H
