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
  Out.Latencies.resize(size_t(Runs) * Loads);
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Loads != 0) {
    std::vector<Stream> &Streams = Latencies[{
        reinterpret_cast<uintptr_t>(&Memory), Seed, Block, Runs}];
    if (Streams.empty()) {
      Streams.reserve(Runs);
      for (unsigned Run = 0; Run != Runs; ++Run)
        Streams.push_back({latencyStream(Seed, Block, Run), {}});
    }
    unsigned *Next = Out.Latencies.data();
    for (Stream &S : Streams) {
      // Grown to the length asked for, not by doubling: a stream holds no
      // more draws than the longest block of its index reads.
      if (S.Drawn.size() < Loads) {
        S.Drawn.reserve(Loads);
        while (S.Drawn.size() != Loads)
          S.Drawn.push_back(Memory.sampleLatency(S.R));
      }
      Next = std::copy_n(S.Drawn.begin(), Loads, Next);
    }
  }
  std::vector<uint32_t> &Indices = BootIndices[{Seed, Block, Runs, Resamples}];
  if (Indices.empty()) {
    Rng R = bootstrapStream(Seed, Block);
    Indices = bootstrapIndices(Runs, Resamples, R);
  }
  Out.BootIndices = Indices;
}
