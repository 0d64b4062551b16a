//===- pipeline/CompileCache.h - Shared sharded compile cache --*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-request compile cache behind both the ExperimentEngine and
/// the bsched_server daemon: compiled functions memoized by the exact
/// content of (function, pipeline config), sharded by key hash so
/// concurrent requests contend only per shard, and bounded by total bytes
/// and entry count with LRU eviction inside each shard.
///
/// This promotes what used to be a private per-engine unordered_map into
/// a subsystem several frontends can share: an engine run, a server
/// handling sustained traffic, and a loadgen warm-up all hit the same
/// entries. Semantics preserved from the engine cache:
///
///  - Failures are never cached; every caller gets the full diagnostics.
///  - Compile metrics count the compiles that ran: a miss records them
///    into the caller's sink, a hit records none (as
///    `bsched.engine.cache_misses` counts misses only).
///  - Two workers may race to first-compile a key; compilation is
///    deterministic, so whichever insertion wins is correct.
///
/// Observability: hit/miss/eviction/insertion counters and byte/entry
/// gauges are published as `bsched.engine.cache_*` into the registry the
/// cache is constructed with (aggregate stats() works without one). The
/// gauges hold the whole cache's bytes and entries as of the latest
/// insert or clear().
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_PIPELINE_COMPILECACHE_H
#define BSCHED_PIPELINE_COMPILECACHE_H

#include "obs/Metrics.h"
#include "pipeline/Pipeline.h"

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace bsched {

/// Sizing knobs. The defaults fit a long-running daemon on a developer
/// machine; the experiment engine historically ran unbounded and keeps
/// doing so via unlimited().
struct CompileCacheConfig {
  /// Independent shards (>= 1). Keys map to shards by FNV-1a hash, so
  /// concurrent requests for unrelated kernels take unrelated locks.
  unsigned Shards = 8;

  /// Total byte budget across shards (approximate, see entryBytes);
  /// 0 = unbounded.
  uint64_t MaxBytes = 64ull << 20;

  /// Total entry budget across shards; 0 = unbounded.
  uint64_t MaxEntries = 0;

  /// The engine's historical behaviour: one shard per hardware thread's
  /// worth of contention, no eviction.
  static CompileCacheConfig unlimited() {
    CompileCacheConfig C;
    C.MaxBytes = 0;
    C.MaxEntries = 0;
    return C;
  }
};

/// Point-in-time accounting across every shard.
struct CompileCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  uint64_t Entries = 0;
  uint64_t Bytes = 0;

  double hitRate() const {
    uint64_t Lookups = Hits + Misses;
    return Lookups == 0 ? 0.0
                        : static_cast<double>(Hits) /
                              static_cast<double>(Lookups);
  }
};

/// The cache. All entry points are thread-safe.
class CompileCache {
public:
  explicit CompileCache(CompileCacheConfig Config = {},
                        MetricRegistry *Metrics = nullptr);

  /// The memoizing compiler: returns the cached CompiledFunction for
  /// (Program, Config) content or compiles and caches it. \p WasHit
  /// (optional) reports whether the cache served the result. A miss
  /// compiles with its metrics recorded into \p Sink when non-null, else
  /// Config.Obs.Metrics; a hit records no compile metrics.
  ErrorOr<CompiledFunction> compile(const Function &Program,
                                    const PipelineConfig &Config,
                                    bool *WasHit = nullptr,
                                    MetricRegistry *Sink = nullptr);

  /// The same, with the program half of the key precomputed: \p
  /// ProgramKey must equal programCacheKey(Program). A caller compiling
  /// one program under many configs prints it once instead of per call;
  /// the full key, and so the entry, is the same either way.
  ErrorOr<CompiledFunction> compile(const Function &Program,
                                    const std::string &ProgramKey,
                                    const PipelineConfig &Config,
                                    bool *WasHit = nullptr,
                                    MetricRegistry *Sink = nullptr);

  /// Distinct keys currently cached.
  size_t size() const;

  /// Approximate bytes currently cached.
  uint64_t bytes() const;

  /// Aggregated lifetime + occupancy counters.
  CompileCacheStats stats() const;

  /// Drops every cached compilation (counters keep their history).
  void clear();

  const CompileCacheConfig &config() const { return Config; }

  /// The approximate footprint charged for one entry: key bytes plus a
  /// structural estimate of the compiled function. An estimate is enough
  /// — the bound exists to keep a long-running daemon's memory flat, not
  /// to account exact heap bytes. The unnamed snapshot parameter has no
  /// effect; the repository benchmark's traced replay (perfbench/) still
  /// passes one, which pins the signature until that replay is deleted.
  static uint64_t entryBytes(const std::string &Key,
                             const CompiledFunction &Compiled,
                             const MetricSnapshot &);

private:
  struct Entry {
    std::shared_ptr<const CompiledFunction> Compiled;
    uint64_t Bytes = 0;
    std::list<const std::string *>::iterator LruIt;
  };

  struct Shard {
    mutable std::mutex Mutex;
    std::unordered_map<std::string, Entry> Map;
    /// MRU at the front; nodes point at the map's stable key storage.
    std::list<const std::string *> Lru;
    uint64_t Bytes = 0;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Insertions = 0;
    uint64_t Evictions = 0;
  };

  Shard &shardFor(const std::string &Key);

  /// Evicts LRU entries of \p S until it fits the per-shard budget.
  /// Caller holds S.Mutex; returns evicted count.
  unsigned enforceBudget(Shard &S);

  /// Sets the byte and entry gauges from the cache-wide totals.
  void publishOccupancy();

  CompileCacheConfig Config;
  uint64_t ShardMaxBytes;   ///< Per-shard slice of MaxBytes (0 = none).
  uint64_t ShardMaxEntries; ///< Per-shard slice of MaxEntries (0 = none).
  std::vector<std::unique_ptr<Shard>> Shards;

  // Published `bsched.engine.cache_*` handles (inert without a registry).
  Counter HitCounter, MissCounter, InsertCounter, EvictCounter;
  Gauge BytesGauge, EntriesGauge;
  std::mutex PublishMutex; ///< Held across one publishOccupancy().
};

/// The exact content key the compile cache memoizes on: the printed
/// function plus every compilation-relevant PipelineConfig knob, with all
/// floating-point fields rendered in hex-exact form (block frequencies and
/// FP immediates are re-appended exactly, since the printer rounds them).
/// Obs, WeighterPool, Closure and the closure-bit budget are deliberately
/// excluded: observing a compile, parallelizing its weighting or setting
/// the no-effect closure knobs never changes the result (pinned by the
/// cache-key tests).
/// It is programCacheKey(Program) + configCacheKey(Config).
std::string experimentCacheKey(const Function &Program,
                               const PipelineConfig &Config);

/// The program half of the key: the printed function, then `#freqs` and
/// every block frequency and FP immediate, hex-exact.
std::string programCacheKey(const Function &Program);

/// The config half of the key: `\n#config`, then the value of every
/// keyed row of the config field list, in list order, each after a space
/// (doubles hex-exact). Defined beside the list, in ConfigJson.cpp.
std::string configCacheKey(const PipelineConfig &Config);

} // namespace bsched

#endif // BSCHED_PIPELINE_COMPILECACHE_H
