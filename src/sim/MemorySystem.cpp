//===- sim/MemorySystem.cpp - Memory latency models -------------------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "sim/MemorySystem.h"

#include "support/StringUtils.h"

#include <climits>
#include <cmath>

using namespace bsched;

MemorySystem::~MemorySystem() = default;

std::string FixedSystem::name() const {
  return "Fixed(" + std::to_string(Latency) + ")";
}

unsigned CacheSystem::sampleLatency(Rng &R) const {
  return R.nextBernoulli(HitRate) ? HitLatency : MissLatency;
}

double CacheSystem::effectiveLatency() const {
  return HitRate * HitLatency + (1.0 - HitRate) * MissLatency;
}

std::string CacheSystem::name() const {
  return "L" + std::to_string(static_cast<int>(std::lround(HitRate * 100))) +
         "(" + std::to_string(HitLatency) + "," +
         std::to_string(MissLatency) + ")";
}

unsigned NetworkSystem::sampleLatency(Rng &R) const {
  const double Sample = Mean + Stddev * R.nextGaussian();
  // Clamped before rounding, so a sample past UINT_MAX saturates instead
  // of wrapping in the conversion (or overflowing lround's long).
  if (Sample < 1.0)
    return 1;
  if (Sample >= static_cast<double>(UINT_MAX))
    return UINT_MAX;
  return static_cast<unsigned>(std::lround(Sample));
}

std::string NetworkSystem::name() const {
  auto Fmt = [](double V) {
    // Integral parameters print without a decimal point, like the paper.
    if (V == std::floor(V))
      return std::to_string(static_cast<long>(V));
    return formatDouble(V, 1);
  };
  return "N(" + Fmt(Mean) + "," + Fmt(Stddev) + ")";
}

unsigned MixedSystem::sampleLatency(Rng &R) const {
  if (R.nextBernoulli(HitRate))
    return HitLatency;
  return Miss.sampleLatency(R);
}

double MixedSystem::effectiveLatency() const {
  return HitRate * HitLatency + (1.0 - HitRate) * Miss.effectiveLatency();
}

std::string MixedSystem::name() const {
  return "L" + std::to_string(static_cast<int>(std::lround(HitRate * 100))) +
         "-" + Miss.name();
}
