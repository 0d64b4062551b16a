//===- obs/Metrics.h - Sharded metric registry -----------------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metric substrate of the observability layer (DESIGN.md §3g): a
/// `MetricRegistry` of named counters, gauges, and fixed-bucket
/// histograms, designed for the experiment engine's hot paths.
///
///  - **Zero locks on the hot path.** Recording is relaxed atomics: one
///    add to a per-shard slot for a counter, three adds plus an atomic min
///    and max for a histogram sample, and one store for a gauge, which has
///    a single slot. Threads map onto shards via a process-wide thread
///    index, so unrelated workers touch unrelated cache lines. A loop too
///    hot even for that tallies into a plain `HistogramData` and folds it
///    in once with `Histogram::merge`. Registration (cold) takes a mutex;
///    handles are pre-resolved once and then record lock-free.
///  - **Exact merges.** `snapshot()` sums every shard; counter and
///    histogram totals are integers, so a merged snapshot equals the
///    serial run's counts exactly — the property the engine's
///    determinism tests pin (serial vs. BSCHED_JOBS>1 under TSan).
///  - **Names** follow `bsched.<layer>.<name>` (`bsched.sim.cycles`,
///    `bsched.sched.ready_list_occupancy`, ...).
///
/// Semantics: counters only grow and merge by addition. A gauge holds one
/// current value: the last `set` wins, whichever thread made it, and a
/// snapshot reports that value. `mergeSnapshot` folds a gauge in by
/// maximum. Histograms have fixed upper-inclusive bucket edges chosen at
/// registration: a value lands in the first bucket whose edge is >= the
/// value, or the final overflow bucket; merges add bucket-wise.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_OBS_METRICS_H
#define BSCHED_OBS_METRICS_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace bsched {

class MetricRegistry;
struct HistogramData;

/// A monotonically increasing counter. Default-constructed it is inert.
class Counter {
public:
  Counter() = default;
  inline void add(uint64_t Delta = 1);

private:
  friend class MetricRegistry;
  Counter(MetricRegistry *Reg, unsigned Index) : Reg(Reg), Index(Index) {}
  MetricRegistry *Reg = nullptr;
  unsigned Index = 0;
};

/// A current value: the last set() wins across threads.
class Gauge {
public:
  Gauge() = default;
  inline void set(double Value);

private:
  friend class MetricRegistry;
  Gauge(MetricRegistry *Reg, unsigned Index) : Reg(Reg), Index(Index) {}
  MetricRegistry *Reg = nullptr;
  unsigned Index = 0;
};

/// A fixed-bucket histogram of non-negative integer samples.
class Histogram {
public:
  Histogram() = default;
  inline void record(uint64_t Value);

  /// Folds in a plain tally (HistogramData::record) with this histogram's
  /// bucket edges, as if each of its samples had been recorded.
  inline void merge(const HistogramData &Tally);

private:
  friend class MetricRegistry;
  Histogram(MetricRegistry *Reg, unsigned Index) : Reg(Reg), Index(Index) {}
  MetricRegistry *Reg = nullptr;
  unsigned Index = 0;
};

/// Merged histogram contents in a snapshot.
struct HistogramData {
  /// Upper-inclusive bucket edges; Counts has one extra overflow bucket.
  std::vector<uint64_t> UpperEdges;
  std::vector<uint64_t> Counts;
  uint64_t Count = 0; ///< Total samples.
  uint64_t Sum = 0;   ///< Sum of all samples.
  uint64_t Min = 0;   ///< Smallest sample (0 when Count == 0).
  uint64_t Max = 0;   ///< Largest sample (0 when Count == 0).

  bool operator==(const HistogramData &) const = default;

  /// Estimates the \p Q quantile (0..1, clamped) by linear interpolation
  /// inside the bucket holding the target rank. The overflow bucket
  /// interpolates up to the observed Max; results are clamped to
  /// [Min, Max]. Returns 0.0 when empty. With log-spaced edges the
  /// estimate is off by at most one bucket width — the agreement
  /// contract the server/loadgen cross-check pins.
  double estimateQuantile(double Q) const;

  /// Tallies one sample into this plain copy, bucketed as
  /// Histogram::record does. Single-threaded; Counts must hold
  /// UpperEdges.size() + 1 buckets. A hot loop tallies here and folds the
  /// result in once, with Histogram::merge.
  void record(uint64_t Value) {
    ++Counts[static_cast<size_t>(
        std::lower_bound(UpperEdges.begin(), UpperEdges.end(), Value) -
        UpperEdges.begin())];
    Min = Count == 0 ? Value : std::min(Min, Value);
    Max = std::max(Max, Value);
    ++Count;
    Sum += Value;
  }
};

/// A point-in-time merge of every shard of a registry. Plain data:
/// copyable, comparable and serializable; MetricRegistry::mergeSnapshot
/// folds one into a registry.
struct MetricSnapshot {
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, double> Gauges;
  std::map<std::string, HistogramData> Histograms;

  bool operator==(const MetricSnapshot &) const = default;
  bool empty() const {
    return Counters.empty() && Gauges.empty() && Histograms.empty();
  }

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":
  /// {name:{"edges":[...],"counts":[...],"count":..,"sum":..,...}}}.
  std::string toJson() const;

  /// Prometheus text exposition (version 0.0.4): metric names have
  /// non-[a-zA-Z0-9_:] characters replaced by '_' ("bsched.server.
  /// requests" -> "bsched_server_requests"), counters/gauges emit one
  /// `# TYPE` line plus the sample, histograms emit cumulative
  /// `_bucket{le="..."}` samples ending in `le="+Inf"` plus `_sum` and
  /// `_count`.
  std::string toPrometheus() const;
};

/// The registry. Thread-safe throughout: registration takes an internal
/// mutex, recording through handles is lock-free (relaxed atomics on the
/// calling thread's shard). Capacity is fixed at construction
/// (shard count) and generous fixed caps bound the metric tables so the
/// hot path never reallocates under readers.
class MetricRegistry {
public:
  /// \p Shards = 0 picks a default sized for the machine (at least 2, so
  /// sharding is always exercised). More shards than threads is harmless;
  /// totals are exact regardless.
  explicit MetricRegistry(unsigned Shards = 0);
  ~MetricRegistry();

  MetricRegistry(const MetricRegistry &) = delete;
  MetricRegistry &operator=(const MetricRegistry &) = delete;

  /// Returns the handle for counter \p Name, registering it on first use.
  Counter counter(std::string_view Name);

  /// Returns the handle for gauge \p Name, registering it on first use.
  Gauge gauge(std::string_view Name);

  /// Returns the handle for histogram \p Name with the given
  /// upper-inclusive bucket edges (strictly increasing, non-empty).
  /// Re-registering an existing name requires identical edges.
  Histogram histogram(std::string_view Name,
                      const std::vector<uint64_t> &UpperEdges);

  unsigned shardCount() const { return NumShards; }

  /// Merges every shard into one snapshot. Safe to call concurrently with
  /// recording; in-flight updates land in the next snapshot.
  MetricSnapshot snapshot() const;

  /// Folds an external snapshot into this registry (registering any
  /// missing names): counters add, a gauge keeps the larger of its value
  /// and the snapshot's, histograms add bucket-wise. Cold path.
  void mergeSnapshot(const MetricSnapshot &Snapshot);

private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct CounterStorage;
  struct GaugeStorage;
  struct HistogramStorage;

  void counterAdd(unsigned Index, uint64_t Delta);
  void gaugeSet(unsigned Index, double Value);
  void gaugeSetMax(unsigned Index, double Value);
  void histogramRecord(unsigned Index, uint64_t Value);
  void histogramMerge(unsigned Index, const HistogramData &Data);

  /// The calling thread's shard index (obsThreadIndex() modulo the shard
  /// count; two threads sharing a shard is still exact, just contended).
  unsigned threadShard() const;

  unsigned NumShards = 1;

  // Fixed-capacity tables of atomically published storage pointers: the
  // hot path indexes without synchronizing against registration.
  static constexpr unsigned MaxCounters = 256;
  static constexpr unsigned MaxGauges = 64;
  static constexpr unsigned MaxHistograms = 64;
  std::unique_ptr<std::atomic<CounterStorage *>[]> CounterTable;
  std::unique_ptr<std::atomic<GaugeStorage *>[]> GaugeTable;
  std::unique_ptr<std::atomic<HistogramStorage *>[]> HistogramTable;

  mutable std::mutex RegistrationMutex;
  std::unordered_map<std::string, unsigned> CounterIds;
  std::unordered_map<std::string, unsigned> GaugeIds;
  std::unordered_map<std::string, unsigned> HistogramIds;
  std::vector<std::string> CounterNames;
  std::vector<std::string> GaugeNames;
  std::vector<std::string> HistogramNames;
};

inline void Counter::add(uint64_t Delta) {
  if (Reg)
    Reg->counterAdd(Index, Delta);
}

inline void Gauge::set(double Value) {
  if (Reg)
    Reg->gaugeSet(Index, Value);
}

inline void Histogram::record(uint64_t Value) {
  if (Reg)
    Reg->histogramRecord(Index, Value);
}

inline void Histogram::merge(const HistogramData &Tally) {
  if (Reg)
    Reg->histogramMerge(Index, Tally);
}

} // namespace bsched

#endif // BSCHED_OBS_METRICS_H
