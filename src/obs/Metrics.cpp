//===- obs/Metrics.cpp - Sharded metric registry ----------------------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "support/Check.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

using namespace bsched;

//===----------------------------------------------------------------------===
// Shard storage. One cache line per (metric, shard) for counters and
// gauges so concurrent workers never false-share; histograms get one
// aligned shard block each.
//===----------------------------------------------------------------------===

namespace {

struct alignas(64) PaddedSlot {
  std::atomic<uint64_t> Value{0};
};

// [[maybe_unused]] throughout: the recording paths that call these
// helpers compile away under BSCHED_NO_OBS.
[[maybe_unused]] uint64_t doubleBits(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

[[maybe_unused]] double bitsDouble(uint64_t Bits) {
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

[[maybe_unused]] void atomicMax(std::atomic<uint64_t> &Slot,
                                uint64_t Value) {
  uint64_t Current = Slot.load(std::memory_order_relaxed);
  while (Value > Current &&
         !Slot.compare_exchange_weak(Current, Value,
                                     std::memory_order_relaxed)) {
  }
}

[[maybe_unused]] void atomicMin(std::atomic<uint64_t> &Slot,
                                uint64_t Value) {
  uint64_t Current = Slot.load(std::memory_order_relaxed);
  while (Value < Current &&
         !Slot.compare_exchange_weak(Current, Value,
                                     std::memory_order_relaxed)) {
  }
}

} // namespace

struct MetricRegistry::CounterStorage {
  explicit CounterStorage(unsigned Shards)
      : Shards(new PaddedSlot[Shards]) {}
  std::unique_ptr<PaddedSlot[]> Shards;
};

struct MetricRegistry::GaugeStorage {
  struct alignas(64) Shard {
    std::atomic<uint64_t> Bits{0};
    std::atomic<uint64_t> Touched{0};
  };
  explicit GaugeStorage(unsigned Shards) : Shards(new Shard[Shards]) {}
  std::unique_ptr<Shard[]> Shards;
};

struct MetricRegistry::HistogramStorage {
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> Buckets;
    std::atomic<uint64_t> Count{0};
    std::atomic<uint64_t> Sum{0};
    std::atomic<uint64_t> Min{~uint64_t(0)};
    std::atomic<uint64_t> Max{0};
  };

  HistogramStorage(std::vector<uint64_t> Edges, unsigned NumShards)
      : UpperEdges(std::move(Edges)), Shards(new Shard[NumShards]) {
    for (unsigned S = 0; S != NumShards; ++S) {
      Shards[S].Buckets.reset(
          new std::atomic<uint64_t>[UpperEdges.size() + 1]);
      for (size_t B = 0; B != UpperEdges.size() + 1; ++B)
        Shards[S].Buckets[B].store(0, std::memory_order_relaxed);
    }
  }

  /// First bucket whose upper edge is >= Value; last bucket is overflow.
  size_t bucketOf(uint64_t Value) const {
    return static_cast<size_t>(
        std::lower_bound(UpperEdges.begin(), UpperEdges.end(), Value) -
        UpperEdges.begin());
  }

  std::vector<uint64_t> UpperEdges;
  std::unique_ptr<Shard[]> Shards;
};

//===----------------------------------------------------------------------===
// Registry.
//===----------------------------------------------------------------------===

unsigned MetricRegistry::threadShard() const {
  static std::atomic<unsigned> NextThreadIndex{0};
  static thread_local unsigned ThreadIndex =
      NextThreadIndex.fetch_add(1, std::memory_order_relaxed);
  return ThreadIndex % NumShards;
}

MetricRegistry::MetricRegistry(unsigned Shards) {
#ifndef BSCHED_NO_OBS
  if (Shards == 0) {
    unsigned Hw = std::thread::hardware_concurrency();
    Shards = std::clamp(Hw, 2u, 64u);
  }
  NumShards = Shards;
  CounterTable.reset(new std::atomic<CounterStorage *>[MaxCounters]);
  GaugeTable.reset(new std::atomic<GaugeStorage *>[MaxGauges]);
  HistogramTable.reset(new std::atomic<HistogramStorage *>[MaxHistograms]);
  for (unsigned I = 0; I != MaxCounters; ++I)
    CounterTable[I].store(nullptr, std::memory_order_relaxed);
  for (unsigned I = 0; I != MaxGauges; ++I)
    GaugeTable[I].store(nullptr, std::memory_order_relaxed);
  for (unsigned I = 0; I != MaxHistograms; ++I)
    HistogramTable[I].store(nullptr, std::memory_order_relaxed);
#else
  (void)Shards;
#endif
}

MetricRegistry::~MetricRegistry() {
#ifndef BSCHED_NO_OBS
  for (unsigned I = 0; I != MaxCounters; ++I)
    delete CounterTable[I].load(std::memory_order_relaxed);
  for (unsigned I = 0; I != MaxGauges; ++I)
    delete GaugeTable[I].load(std::memory_order_relaxed);
  for (unsigned I = 0; I != MaxHistograms; ++I)
    delete HistogramTable[I].load(std::memory_order_relaxed);
#endif
}

Counter MetricRegistry::counter(std::string_view Name) {
#ifndef BSCHED_NO_OBS
  std::lock_guard<std::mutex> Lock(RegistrationMutex);
  auto It = CounterIds.find(std::string(Name));
  if (It != CounterIds.end())
    return Counter(this, It->second);
  unsigned Index = static_cast<unsigned>(CounterNames.size());
  BSCHED_CHECK(Index < MaxCounters, "metric registry counter table full");
  CounterTable[Index].store(new CounterStorage(NumShards),
                            std::memory_order_release);
  CounterNames.emplace_back(Name);
  CounterIds.emplace(CounterNames.back(), Index);
  return Counter(this, Index);
#else
  (void)Name;
  return Counter();
#endif
}

Gauge MetricRegistry::gauge(std::string_view Name) {
#ifndef BSCHED_NO_OBS
  std::lock_guard<std::mutex> Lock(RegistrationMutex);
  auto It = GaugeIds.find(std::string(Name));
  if (It != GaugeIds.end())
    return Gauge(this, It->second);
  unsigned Index = static_cast<unsigned>(GaugeNames.size());
  BSCHED_CHECK(Index < MaxGauges, "metric registry gauge table full");
  GaugeTable[Index].store(new GaugeStorage(NumShards),
                          std::memory_order_release);
  GaugeNames.emplace_back(Name);
  GaugeIds.emplace(GaugeNames.back(), Index);
  return Gauge(this, Index);
#else
  (void)Name;
  return Gauge();
#endif
}

Histogram MetricRegistry::histogram(std::string_view Name,
                                    const std::vector<uint64_t> &UpperEdges) {
#ifndef BSCHED_NO_OBS
  BSCHED_CHECK(!UpperEdges.empty(), "histogram requires at least one edge");
  BSCHED_CHECK(std::is_sorted(UpperEdges.begin(), UpperEdges.end()) &&
                   std::adjacent_find(UpperEdges.begin(), UpperEdges.end()) ==
                       UpperEdges.end(),
               "histogram edges must be strictly increasing");
  std::lock_guard<std::mutex> Lock(RegistrationMutex);
  auto It = HistogramIds.find(std::string(Name));
  if (It != HistogramIds.end()) {
    BSCHED_CHECK(HistogramTable[It->second]
                         .load(std::memory_order_relaxed)
                         ->UpperEdges == UpperEdges,
                 "histogram re-registered with different bucket edges");
    return Histogram(this, It->second);
  }
  unsigned Index = static_cast<unsigned>(HistogramNames.size());
  BSCHED_CHECK(Index < MaxHistograms, "metric registry histogram table full");
  HistogramTable[Index].store(new HistogramStorage(UpperEdges, NumShards),
                              std::memory_order_release);
  HistogramNames.emplace_back(Name);
  HistogramIds.emplace(HistogramNames.back(), Index);
  return Histogram(this, Index);
#else
  (void)Name;
  (void)UpperEdges;
  return Histogram();
#endif
}

#ifndef BSCHED_NO_OBS

void MetricRegistry::counterAdd(unsigned Index, uint64_t Delta) {
  CounterStorage *Storage = CounterTable[Index].load(std::memory_order_acquire);
  Storage->Shards[threadShard()].Value.fetch_add(Delta,
                                                 std::memory_order_relaxed);
}

void MetricRegistry::gaugeSet(unsigned Index, double Value) {
  GaugeStorage *Storage = GaugeTable[Index].load(std::memory_order_acquire);
  GaugeStorage::Shard &Shard = Storage->Shards[threadShard()];
  Shard.Bits.store(doubleBits(Value), std::memory_order_relaxed);
  Shard.Touched.store(1, std::memory_order_release);
}

void MetricRegistry::gaugeSetMax(unsigned Index, double Value) {
  GaugeStorage *Storage = GaugeTable[Index].load(std::memory_order_acquire);
  GaugeStorage::Shard &Shard = Storage->Shards[threadShard()];
  if (Shard.Touched.load(std::memory_order_acquire)) {
    double Current = bitsDouble(Shard.Bits.load(std::memory_order_relaxed));
    if (Current >= Value)
      return;
  }
  Shard.Bits.store(doubleBits(Value), std::memory_order_relaxed);
  Shard.Touched.store(1, std::memory_order_release);
}

void MetricRegistry::histogramRecord(unsigned Index, uint64_t Value) {
  HistogramStorage *Storage =
      HistogramTable[Index].load(std::memory_order_acquire);
  HistogramStorage::Shard &Shard = Storage->Shards[threadShard()];
  Shard.Buckets[Storage->bucketOf(Value)].fetch_add(
      1, std::memory_order_relaxed);
  Shard.Count.fetch_add(1, std::memory_order_relaxed);
  Shard.Sum.fetch_add(Value, std::memory_order_relaxed);
  atomicMin(Shard.Min, Value);
  atomicMax(Shard.Max, Value);
}

void MetricRegistry::histogramMerge(unsigned Index,
                                    const HistogramData &Data) {
  if (Data.Count == 0)
    return;
  HistogramStorage *Storage =
      HistogramTable[Index].load(std::memory_order_acquire);
  BSCHED_CHECK(Data.UpperEdges == Storage->UpperEdges &&
                   Data.Counts.size() == Storage->UpperEdges.size() + 1,
               "merging a histogram with different bucket edges");
  HistogramStorage::Shard &Shard = Storage->Shards[threadShard()];
  for (size_t B = 0; B != Data.Counts.size(); ++B)
    Shard.Buckets[B].fetch_add(Data.Counts[B], std::memory_order_relaxed);
  Shard.Count.fetch_add(Data.Count, std::memory_order_relaxed);
  Shard.Sum.fetch_add(Data.Sum, std::memory_order_relaxed);
  atomicMin(Shard.Min, Data.Min);
  atomicMax(Shard.Max, Data.Max);
}

#else

void MetricRegistry::counterAdd(unsigned, uint64_t) {}
void MetricRegistry::gaugeSet(unsigned, double) {}
void MetricRegistry::gaugeSetMax(unsigned, double) {}
void MetricRegistry::histogramRecord(unsigned, uint64_t) {}
void MetricRegistry::histogramMerge(unsigned, const HistogramData &) {}

#endif // BSCHED_NO_OBS

MetricSnapshot MetricRegistry::snapshot() const {
  MetricSnapshot Result;
#ifndef BSCHED_NO_OBS
  std::lock_guard<std::mutex> Lock(RegistrationMutex);
  for (unsigned I = 0; I != CounterNames.size(); ++I) {
    const CounterStorage *Storage =
        CounterTable[I].load(std::memory_order_acquire);
    uint64_t Total = 0;
    for (unsigned S = 0; S != NumShards; ++S)
      Total += Storage->Shards[S].Value.load(std::memory_order_relaxed);
    Result.Counters.emplace(CounterNames[I], Total);
  }
  for (unsigned I = 0; I != GaugeNames.size(); ++I) {
    const GaugeStorage *Storage =
        GaugeTable[I].load(std::memory_order_acquire);
    bool Any = false;
    double Best = 0.0;
    for (unsigned S = 0; S != NumShards; ++S) {
      const GaugeStorage::Shard &Shard = Storage->Shards[S];
      if (!Shard.Touched.load(std::memory_order_acquire))
        continue;
      double V = bitsDouble(Shard.Bits.load(std::memory_order_relaxed));
      Best = Any ? std::max(Best, V) : V;
      Any = true;
    }
    if (Any)
      Result.Gauges.emplace(GaugeNames[I], Best);
  }
  for (unsigned I = 0; I != HistogramNames.size(); ++I) {
    const HistogramStorage *Storage =
        HistogramTable[I].load(std::memory_order_acquire);
    HistogramData Data;
    Data.UpperEdges = Storage->UpperEdges;
    Data.Counts.assign(Storage->UpperEdges.size() + 1, 0);
    uint64_t Min = ~uint64_t(0);
    for (unsigned S = 0; S != NumShards; ++S) {
      const HistogramStorage::Shard &Shard = Storage->Shards[S];
      for (size_t B = 0; B != Data.Counts.size(); ++B)
        Data.Counts[B] += Shard.Buckets[B].load(std::memory_order_relaxed);
      Data.Count += Shard.Count.load(std::memory_order_relaxed);
      Data.Sum += Shard.Sum.load(std::memory_order_relaxed);
      Min = std::min(Min, Shard.Min.load(std::memory_order_relaxed));
      Data.Max = std::max(Data.Max,
                          Shard.Max.load(std::memory_order_relaxed));
    }
    Data.Min = Data.Count == 0 ? 0 : Min;
    Result.Histograms.emplace(HistogramNames[I], std::move(Data));
  }
#endif
  return Result;
}

void MetricRegistry::mergeSnapshot(const MetricSnapshot &Snapshot) {
#ifndef BSCHED_NO_OBS
  for (const auto &[Name, Value] : Snapshot.Counters) {
    Counter C = counter(Name);
    if (Value != 0)
      counterAdd(C.Index, Value);
  }
  for (const auto &[Name, Value] : Snapshot.Gauges) {
    Gauge G = gauge(Name);
    gaugeSetMax(G.Index, Value);
  }
  for (const auto &[Name, Data] : Snapshot.Histograms) {
    Histogram H = histogram(Name, Data.UpperEdges);
    histogramMerge(H.Index, Data);
  }
#else
  (void)Snapshot;
#endif
}

//===----------------------------------------------------------------------===
// Snapshot merge + JSON.
//===----------------------------------------------------------------------===

void MetricSnapshot::merge(const MetricSnapshot &Other) {
  for (const auto &[Name, Value] : Other.Counters)
    Counters[Name] += Value;
  for (const auto &[Name, Value] : Other.Gauges) {
    auto [It, Inserted] = Gauges.emplace(Name, Value);
    if (!Inserted)
      It->second = std::max(It->second, Value);
  }
  for (const auto &[Name, Data] : Other.Histograms) {
    auto [It, Inserted] = Histograms.emplace(Name, Data);
    if (Inserted)
      continue;
    HistogramData &Mine = It->second;
    BSCHED_CHECK(Mine.UpperEdges == Data.UpperEdges,
                 "merging histograms with different bucket edges");
    for (size_t B = 0; B != Mine.Counts.size(); ++B)
      Mine.Counts[B] += Data.Counts[B];
    if (Data.Count != 0) {
      Mine.Min = Mine.Count == 0 ? Data.Min : std::min(Mine.Min, Data.Min);
      Mine.Max = Mine.Count == 0 ? Data.Max : std::max(Mine.Max, Data.Max);
    }
    Mine.Count += Data.Count;
    Mine.Sum += Data.Sum;
  }
}

double HistogramData::estimateQuantile(double Q) const {
  if (Count == 0)
    return 0.0;
  Q = std::clamp(Q, 0.0, 1.0);
  // Target rank in [1, Count]; the quantile lives in the first bucket
  // whose cumulative count reaches it.
  const double Target = std::max(1.0, Q * static_cast<double>(Count));
  uint64_t Cumulative = 0;
  for (size_t B = 0; B != Counts.size(); ++B) {
    if (Counts[B] == 0)
      continue;
    const uint64_t Before = Cumulative;
    Cumulative += Counts[B];
    if (static_cast<double>(Cumulative) < Target)
      continue;
    // Interpolate inside [Lower, Upper]. The first bucket starts at the
    // observed Min rather than 0, and the overflow bucket ends at the
    // observed Max rather than infinity.
    double Lower = B == 0 ? static_cast<double>(Min)
                          : static_cast<double>(UpperEdges[B - 1]);
    double Upper = B < UpperEdges.size() ? static_cast<double>(UpperEdges[B])
                                         : static_cast<double>(Max);
    if (Upper < Lower)
      Upper = Lower;
    const double Fraction =
        (Target - static_cast<double>(Before)) /
        static_cast<double>(Counts[B]);
    const double Estimate = Lower + (Upper - Lower) * Fraction;
    return std::clamp(Estimate, static_cast<double>(Min),
                      static_cast<double>(Max));
  }
  return static_cast<double>(Max);
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:] (no leading digit).
std::string prometheusName(std::string_view Name) {
  std::string Result;
  Result.reserve(Name.size());
  for (char C : Name) {
    const bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                    (C >= '0' && C <= '9') || C == '_' || C == ':';
    Result.push_back(Ok ? C : '_');
  }
  if (Result.empty() || (Result.front() >= '0' && Result.front() <= '9'))
    Result.insert(Result.begin(), '_');
  return Result;
}

void appendPrometheusDouble(std::string &Out, double Value) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
  Out += Buffer;
}

} // namespace

std::string MetricSnapshot::toPrometheus() const {
  std::string Out;
  for (const auto &[Name, Value] : Counters) {
    const std::string P = prometheusName(Name);
    Out += "# TYPE " + P + " counter\n";
    Out += P + " " + std::to_string(Value) + "\n";
  }
  for (const auto &[Name, Value] : Gauges) {
    const std::string P = prometheusName(Name);
    Out += "# TYPE " + P + " gauge\n";
    Out += P + " ";
    appendPrometheusDouble(Out, Value);
    Out += "\n";
  }
  for (const auto &[Name, Data] : Histograms) {
    const std::string P = prometheusName(Name);
    Out += "# TYPE " + P + " histogram\n";
    uint64_t Cumulative = 0;
    for (size_t B = 0; B != Data.UpperEdges.size(); ++B) {
      Cumulative += B < Data.Counts.size() ? Data.Counts[B] : 0;
      Out += P + "_bucket{le=\"" + std::to_string(Data.UpperEdges[B]) +
             "\"} " + std::to_string(Cumulative) + "\n";
    }
    Out += P + "_bucket{le=\"+Inf\"} " + std::to_string(Data.Count) + "\n";
    Out += P + "_sum " + std::to_string(Data.Sum) + "\n";
    Out += P + "_count " + std::to_string(Data.Count) + "\n";
  }
  return Out;
}

std::string MetricSnapshot::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("counters").beginObject();
  for (const auto &[Name, Value] : Counters)
    W.key(Name).value(Value);
  W.endObject();
  W.key("gauges").beginObject();
  for (const auto &[Name, Value] : Gauges)
    W.key(Name).value(Value);
  W.endObject();
  W.key("histograms").beginObject();
  for (const auto &[Name, Data] : Histograms) {
    W.key(Name).beginObject();
    W.key("edges").beginArray();
    for (uint64_t Edge : Data.UpperEdges)
      W.value(Edge);
    W.endArray();
    W.key("counts").beginArray();
    for (uint64_t BucketCount : Data.Counts)
      W.value(BucketCount);
    W.endArray();
    W.key("count").value(Data.Count);
    W.key("sum").value(Data.Sum);
    W.key("min").value(Data.Min);
    W.key("max").value(Data.Max);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  return W.str();
}
