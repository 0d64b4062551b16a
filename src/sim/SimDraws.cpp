//===- sim/SimDraws.cpp - The random draws of a simulation run ------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "sim/SimDraws.h"

#include "stats/Bootstrap.h"

#include <algorithm>

using namespace bsched;

Rng SimDraws::latencyStream(uint64_t Seed, unsigned Block, unsigned Run) {
  return Rng(Seed ^ (0x9E3779B97F4A7C15ULL * (Block + 1)) ^
             (0xD1B54A32D192ED03ULL * (Run + 1)));
}

Rng SimDraws::bootstrapStream(uint64_t Seed, unsigned Block) {
  return Rng(Seed ^ (0xA0761D6478BD642FULL * (Block + 7)));
}

void SimDraws::draw(const MemorySystem &Memory, uint64_t Seed,
                    unsigned Block, unsigned Runs, unsigned Resamples,
                    size_t Loads, BlockDraws &Out) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Out.Latencies = {};
  if (Loads != 0) {
    Streams &S = Latencies[{reinterpret_cast<uintptr_t>(&Memory), Seed,
                            Block, Runs}];
    if (S.Runs.empty()) {
      S.Runs.reserve(Runs);
      for (unsigned Run = 0; Run != Runs; ++Run)
        S.Runs.push_back(latencyStream(Seed, Block, Run));
    }
    // Grown to the length asked for, not by doubling: a stream holds no
    // more draws than the longest block of its index reads. Views of the
    // shorter storage stay valid, so it is kept.
    if (S.Loads < Loads) {
      std::unique_ptr<unsigned[]> Grown(new unsigned[Loads * Runs]);
      if (S.Loads != 0)
        std::copy_n(S.Storage.back().get(), S.Loads * Runs, Grown.get());
      for (size_t K = S.Loads; K != Loads; ++K)
        for (unsigned Run = 0; Run != Runs; ++Run)
          Grown[K * Runs + Run] = Memory.sampleLatency(S.Runs[Run]);
      S.Storage.push_back(std::move(Grown));
      S.Loads = Loads;
    }
    Out.Latencies = {S.Storage.back().get(), Loads * Runs};
  }
  std::vector<uint32_t> &Indices = BootIndices[{Seed, Block, Runs, Resamples}];
  if (Indices.empty()) {
    Rng R = bootstrapStream(Seed, Block);
    Indices = bootstrapIndices(Runs, Resamples, R);
  }
  Out.BootIndices = Indices;
}
