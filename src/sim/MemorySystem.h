//===- sim/MemorySystem.h - Memory latency models --------------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three families of memory systems from the paper's section 4.5:
///
///  - CacheSystem Lhr(hl,ml): a lockup-free data cache with hit rate hr,
///    hit latency hl and miss latency ml (models a workstation-class RISC,
///    e.g. the Motorola 88000 series).
///  - NetworkSystem N(mu,sigma): a hashed multipath memory interconnect
///    whose latency is a zero-based discretized normal (models a Tera-like
///    machine under varying network load).
///  - MixedSystem Lhr-N(mu,sigma): a cache whose misses traverse a network
///    (models Alewife-like shared-memory machines).
///
/// A FixedSystem provides deterministic latencies for unit tests and the
/// Figure 3 interlock chart.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SIM_MEMORYSYSTEM_H
#define BSCHED_SIM_MEMORYSYSTEM_H

#include "support/Check.h"
#include "support/Rng.h"

#include <cmath>
#include <memory>
#include <string>

namespace bsched {

/// A load-latency distribution.
class MemorySystem {
public:
  virtual ~MemorySystem();

  /// Draws one load latency in cycles (always >= 1). Must depend on
  /// nothing but \p R's state: an engine run draws each stream once and
  /// shares it among every cell that reads it (sim/SimDraws.h).
  virtual unsigned sampleLatency(Rng &R) const = 0;

  /// The optimistic latency a traditional scheduler would assume: the
  /// cache hit time, or the network mean.
  virtual double optimisticLatency() const = 0;

  /// The long-run mean latency (the "effective access time" rows of the
  /// paper's Table 2).
  virtual double effectiveLatency() const = 0;

  /// Display name in the paper's notation ("L80(2,5)", "N(3,5)", ...).
  virtual std::string name() const = 0;
};

/// Deterministic latency (tests and Figure 3).
class FixedSystem final : public MemorySystem {
public:
  explicit FixedSystem(unsigned Latency) : Latency(Latency) {
    BSCHED_CHECK(Latency >= 1, "latency below one cycle");
  }
  unsigned sampleLatency(Rng &) const override { return Latency; }
  double optimisticLatency() const override { return Latency; }
  double effectiveLatency() const override { return Latency; }
  std::string name() const override;

private:
  unsigned Latency;
};

/// Bernoulli cache: hit with probability HitRate.
class CacheSystem final : public MemorySystem {
public:
  CacheSystem(double HitRate, unsigned HitLatency, unsigned MissLatency)
      : HitRate(HitRate), HitLatency(HitLatency), MissLatency(MissLatency) {
    BSCHED_CHECK(HitRate >= 0.0 && HitRate <= 1.0, "hit rate out of range");
    BSCHED_CHECK(HitLatency >= 1, "hit latency below one cycle");
    BSCHED_CHECK(MissLatency >= 1, "miss latency below one cycle");
  }
  unsigned sampleLatency(Rng &R) const override;
  double optimisticLatency() const override { return HitLatency; }
  double effectiveLatency() const override;
  std::string name() const override;

private:
  double HitRate;
  unsigned HitLatency;
  unsigned MissLatency;
};

/// Discretized zero-based normal: max(1, round(N(mu, sigma))), saturated
/// at UINT_MAX.
class NetworkSystem final : public MemorySystem {
public:
  NetworkSystem(double Mean, double Stddev) : Mean(Mean), Stddev(Stddev) {
    BSCHED_CHECK(std::isfinite(Mean), "network mean not finite");
    BSCHED_CHECK(std::isfinite(Stddev) && Stddev >= 0.0,
                 "network stddev negative or not finite");
  }
  unsigned sampleLatency(Rng &R) const override;
  double optimisticLatency() const override { return Mean; }
  double effectiveLatency() const override { return Mean; }
  std::string name() const override;

private:
  double Mean;
  double Stddev;
};

/// Cache in front of a network: hit -> HitLatency, miss -> N(mu, sigma).
class MixedSystem final : public MemorySystem {
public:
  MixedSystem(double HitRate, unsigned HitLatency, double MissMean,
              double MissStddev)
      : HitRate(HitRate), HitLatency(HitLatency),
        Miss(MissMean, MissStddev) {
    BSCHED_CHECK(HitRate >= 0.0 && HitRate <= 1.0, "hit rate out of range");
    BSCHED_CHECK(HitLatency >= 1, "hit latency below one cycle");
  }
  unsigned sampleLatency(Rng &R) const override;
  double optimisticLatency() const override { return HitLatency; }
  double effectiveLatency() const override;
  std::string name() const override;

private:
  double HitRate;
  unsigned HitLatency;
  NetworkSystem Miss;
};

} // namespace bsched

#endif // BSCHED_SIM_MEMORYSYSTEM_H
