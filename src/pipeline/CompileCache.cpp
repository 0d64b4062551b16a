//===- pipeline/CompileCache.cpp - Shared sharded compile cache -----------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "pipeline/CompileCache.h"

#include "ir/IrPrinter.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace bsched;

std::string bsched::programCacheKey(const Function &Program) {
  std::string Key = printFunction(Program);
  Key += "#freqs";
  for (const BasicBlock &BB : Program) {
    appendHexExact(Key, BB.frequency());
    for (const Instruction &I : BB)
      if (opcodeHasFpImm(I.opcode()))
        appendHexExact(Key, I.fpImm());
  }
  return Key;
}

std::string bsched::experimentCacheKey(const Function &Program,
                                       const PipelineConfig &Config) {
  return programCacheKey(Program) + configCacheKey(Config);
}

uint64_t CompileCache::entryBytes(const std::string &Key,
                                  const CompiledFunction &Compiled,
                                  const MetricSnapshot &) {
  uint64_t Bytes = Key.size() + sizeof(Entry) + 64;
  // Structural estimate of the compiled function: instructions dominate.
  Bytes += uint64_t(Compiled.StaticInstructions) * sizeof(Instruction);
  Bytes += Compiled.SpillPerBlock.size() * sizeof(unsigned);
  for (const BasicBlock &BB : Compiled.Compiled)
    Bytes += sizeof(BasicBlock) + BB.name().size();
  return Bytes;
}

CompileCache::CompileCache(CompileCacheConfig Config, MetricRegistry *Metrics)
    : Config(Config) {
  if (this->Config.Shards == 0)
    this->Config.Shards = 1;
  unsigned N = this->Config.Shards;
  ShardMaxBytes = Config.MaxBytes == 0 ? 0 : std::max<uint64_t>(Config.MaxBytes / N, 1);
  ShardMaxEntries =
      Config.MaxEntries == 0 ? 0 : std::max<uint64_t>(Config.MaxEntries / N, 1);
  Shards.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Shards.push_back(std::make_unique<Shard>());
  if (Metrics) {
    HitCounter = Metrics->counter("bsched.engine.cache_hits");
    MissCounter = Metrics->counter("bsched.engine.cache_misses");
    InsertCounter = Metrics->counter("bsched.engine.cache_insertions");
    EvictCounter = Metrics->counter("bsched.engine.cache_evictions");
    BytesGauge = Metrics->gauge("bsched.engine.cache_bytes");
    EntriesGauge = Metrics->gauge("bsched.engine.cache_entries");
  }
}

CompileCache::Shard &CompileCache::shardFor(const std::string &Key) {
  // The standard hash, as the shard's map uses: a pass over a key of
  // several kilobytes costs a fraction of stableHash's byte-at-a-time
  // FNV-1a, and the shard needs no hash that is stable across builds.
  return *Shards[std::hash<std::string>{}(Key) % Shards.size()];
}

unsigned CompileCache::enforceBudget(Shard &S) {
  unsigned Evicted = 0;
  while (!S.Lru.empty() &&
         ((ShardMaxBytes != 0 && S.Bytes > ShardMaxBytes) ||
          (ShardMaxEntries != 0 && S.Map.size() > ShardMaxEntries))) {
    const std::string *Victim = S.Lru.back();
    auto It = S.Map.find(*Victim);
    BSCHED_CHECK(It != S.Map.end(), "LRU node without a cache entry");
    S.Bytes -= It->second.Bytes;
    S.Lru.pop_back();
    S.Map.erase(It);
    ++S.Evictions;
    ++Evicted;
  }
  return Evicted;
}

ErrorOr<CompiledFunction> CompileCache::compile(const Function &Program,
                                                const PipelineConfig &Config,
                                                bool *WasHit,
                                                MetricRegistry *Sink) {
  return compile(Program, programCacheKey(Program), Config, WasHit, Sink);
}

ErrorOr<CompiledFunction> CompileCache::compile(const Function &Program,
                                                const std::string &ProgramKey,
                                                const PipelineConfig &Config,
                                                bool *WasHit,
                                                MetricRegistry *Sink) {
  const std::string Key = ProgramKey + configCacheKey(Config);
  Shard &S = shardFor(Key);
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Map.find(Key);
    if (It != S.Map.end()) {
      ++S.Hits;
      HitCounter.add();
      // Touch: move to MRU.
      S.Lru.splice(S.Lru.begin(), S.Lru, It->second.LruIt);
      if (WasHit)
        *WasHit = true;
      return *It->second.Compiled;
    }
    ++S.Misses;
  }
  MissCounter.add();
  if (WasHit)
    *WasHit = false;

  // Compile outside any lock, recording into the caller's sink when it
  // names one. (The key never includes Obs — observation cannot change
  // what is cached.)
  PipelineConfig CompileConfig = Config;
  if (Sink)
    CompileConfig.Obs.Metrics = Sink;
  ErrorOr<CompiledFunction> Result = runPipeline(Program, CompileConfig);
  // Failures are never cached: every affected caller gets the full
  // diagnostics rather than a "previously failed" stub.
  if (!Result)
    return Result;

  uint64_t Bytes = entryBytes(Key, *Result, {});
  unsigned Evicted = 0;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    // Two workers may race to first-compile the same key; both computed
    // the identical result, so first insertion wins and the loser's work
    // is simply dropped.
    auto [It, Inserted] = S.Map.try_emplace(Key);
    if (Inserted) {
      S.Lru.push_front(&It->first);
      It->second.Compiled =
          std::make_shared<const CompiledFunction>(*Result);
      It->second.Bytes = Bytes;
      It->second.LruIt = S.Lru.begin();
      S.Bytes += Bytes;
      ++S.Insertions;
      InsertCounter.add();
      Evicted = enforceBudget(S);
    }
  }
  if (Evicted)
    EvictCounter.add(Evicted);
  // This follows a full compile, so summing every shard costs nothing
  // measurable.
  publishOccupancy();
  return Result;
}

void CompileCache::publishOccupancy() {
  // Serialized, so the last publisher read the totals last: the gauges
  // end as the cache's occupancy after the latest insert or clear().
  std::lock_guard<std::mutex> Lock(PublishMutex);
  CompileCacheStats Totals = stats();
  BytesGauge.set(static_cast<double>(Totals.Bytes));
  EntriesGauge.set(static_cast<double>(Totals.Entries));
}

size_t CompileCache::size() const {
  size_t Total = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    Total += S->Map.size();
  }
  return Total;
}

uint64_t CompileCache::bytes() const {
  uint64_t Total = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    Total += S->Bytes;
  }
  return Total;
}

CompileCacheStats CompileCache::stats() const {
  CompileCacheStats Stats;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    Stats.Hits += S->Hits;
    Stats.Misses += S->Misses;
    Stats.Insertions += S->Insertions;
    Stats.Evictions += S->Evictions;
    Stats.Entries += S->Map.size();
    Stats.Bytes += S->Bytes;
  }
  return Stats;
}

void CompileCache::clear() {
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    S->Map.clear();
    S->Lru.clear();
    S->Bytes = 0;
  }
  publishOccupancy();
}
