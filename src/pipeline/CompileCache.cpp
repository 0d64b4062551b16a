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
#include <cstdio>

using namespace bsched;

namespace {

/// Appends \p Value in hex-exact form: the printer rounds frequencies and
/// FP immediates for readability, and distinct programs or configs must
/// never share a key.
void appendExact(std::string &Key, double Value) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), " %a", Value);
  Key += Buf;
}

} // namespace

std::string bsched::programCacheKey(const Function &Program) {
  std::string Key = printFunction(Program);
  Key += "#freqs";
  for (const BasicBlock &BB : Program) {
    appendExact(Key, BB.frequency());
    for (const Instruction &I : BB)
      if (opcodeHasFpImm(I.opcode()))
        appendExact(Key, I.fpImm());
  }
  return Key;
}

std::string bsched::configCacheKey(const PipelineConfig &Config) {
  std::string Key = "\n#config ";
  Key += policyName(Config.Policy);
  appendExact(Key, Config.OptimisticLatency);
  for (unsigned Op = 0; Op != NumOpcodes; ++Op)
    appendExact(Key, Config.Ops.opLatency(static_cast<Opcode>(Op)));
  Key += ' ' + std::to_string(Config.Target.NumIntRegs) + ' ' +
         std::to_string(Config.Target.NumFpRegs) + ' ' +
         std::to_string(Config.Target.SpillPoolSize) + ' ' +
         std::to_string(Config.SchedOptions.IssueWidth);
  auto Flag = [&Key](bool Value) { Key += Value ? " 1" : " 0"; };
  Flag(Config.Target.FifoSpillPool);
  Flag(Config.DagOptions.DisambiguateSameBase);
  Flag(Config.DagOptions.AliasAnalysis);
  Flag(Config.RunRegAlloc);
  Flag(Config.SecondSchedulingPass);
  Flag(Config.HonorKnownLatency);
  Flag(Config.RenameAfterAllocation);
  Flag(Config.Certify);
  // Budget fields change compiled output (admission failures, degraded
  // schedules), so they are part of the key — unlike Obs, WeighterPool
  // or the closure knobs.
  appendExact(Key, Config.Budget.DeadlineMs);
  Key += ' ' + std::to_string(Config.Budget.MaxTicks) + ' ' +
         std::to_string(Config.Budget.MaxInstructionsPerBlock) + ' ' +
         std::to_string(Config.Budget.MaxDagEdges) + ' ' +
         std::to_string(Config.Budget.MaxClosureBits) + ' ' +
         std::to_string(Config.Budget.MaxSpillSlots);
  Flag(Config.Budget.Degrade);
  return Key;
}

std::string bsched::experimentCacheKey(const Function &Program,
                                       const PipelineConfig &Config) {
  return programCacheKey(Program) + configCacheKey(Config);
}

namespace {

uint64_t snapshotBytes(const MetricSnapshot &Metrics) {
  uint64_t Bytes = 0;
  for (const auto &[Name, Value] : Metrics.Counters)
    Bytes += Name.size() + sizeof(Value) + 48;
  for (const auto &[Name, Value] : Metrics.Gauges)
    Bytes += Name.size() + sizeof(Value) + 48;
  for (const auto &[Name, Hist] : Metrics.Histograms)
    Bytes += Name.size() + 48 +
             (Hist.UpperEdges.size() + Hist.Counts.size()) * sizeof(uint64_t);
  return Bytes;
}

} // namespace

uint64_t CompileCache::entryBytes(const std::string &Key,
                                  const CompiledFunction &Compiled,
                                  const MetricSnapshot &Metrics) {
  uint64_t Bytes = Key.size() + sizeof(Entry) + 64;
  // Structural estimate of the compiled function: instructions dominate.
  Bytes += uint64_t(Compiled.StaticInstructions) * sizeof(Instruction);
  Bytes += Compiled.SpillPerBlock.size() * sizeof(unsigned);
  for (const BasicBlock &BB : Compiled.Compiled)
    Bytes += sizeof(BasicBlock) + BB.name().size();
  Bytes += snapshotBytes(Metrics);
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
  return *Shards[stableHash(Key) % Shards.size()];
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
  // The metric sink for this request: explicit registry if the caller
  // passed one, else whatever the config carries. (The key never includes
  // Obs — observation cannot change what is cached.)
  MetricRegistry *Out = Sink ? Sink : Config.Obs.Metrics;

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
      // Replay the stored compile metrics so a warm-cache run reports the
      // same totals as a cold one.
      if (Out)
        Out->mergeSnapshot(It->second.CompileMetrics);
      return *It->second.Compiled;
    }
    ++S.Misses;
  }
  MissCounter.add();
  if (WasHit)
    *WasHit = false;

  // Compile outside any lock, into a private registry: the snapshot is
  // stored with the entry and merged exactly once per request (here and
  // on every future hit), so totals are independent of cache state and
  // worker count. Recorded even when this request has no sink — a later
  // observed request may hit this entry and must replay the full compile
  // metrics.
  MetricRegistry CompileReg(2);
  PipelineConfig CompileConfig = Config;
  CompileConfig.Obs.Metrics = &CompileReg;

  ErrorOr<CompiledFunction> Result = runPipeline(Program, CompileConfig);
  // Failures are never cached: every affected caller gets the full
  // diagnostics rather than a "previously failed" stub.
  if (!Result)
    return Result;

  MetricSnapshot CompileMetrics = CompileReg.snapshot();
  if (Out)
    Out->mergeSnapshot(CompileMetrics);

  uint64_t Bytes = entryBytes(Key, *Result, CompileMetrics);
  unsigned Evicted = 0;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    // Two workers may race to first-compile the same key; both computed
    // the identical result (and identical metrics), so first insertion
    // wins and the loser's work is simply dropped.
    auto [It, Inserted] = S.Map.try_emplace(Key);
    if (Inserted) {
      S.Lru.push_front(&It->first);
      It->second.Compiled =
          std::make_shared<const CompiledFunction>(*Result);
      It->second.CompileMetrics = std::move(CompileMetrics);
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
