//===- bench/BenchCommon.h - Shared experiment definitions -----*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared configuration for the table/figure reproduction binaries: the
/// paper's sixteen system rows (section 4.5) with their "Optimistic
/// Latency" values, and the simulation settings of section 4.3 (30 runs
/// per block, 100 bootstrap sample means, 95% CIs).
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_BENCH_BENCHCOMMON_H
#define BSCHED_BENCH_BENCHCOMMON_H

#include "pipeline/ExperimentEngine.h"
#include "sim/MemorySystem.h"
#include "support/Json.h"
#include "workload/PerfectClub.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace bsched::bench {

/// One Table 2 row: a memory system plus the optimistic latencies the
/// traditional scheduler is evaluated with (hit time, and — for systems
/// with caches — the effective access time).
struct SystemRow {
  std::unique_ptr<MemorySystem> Memory;
  std::vector<double> OptimisticLatencies;
  const char *Group; ///< Section label in the paper's tables.
};

/// The sixteen system rows of Table 2, in the paper's order.
inline std::vector<SystemRow> paperSystems() {
  std::vector<SystemRow> Rows;
  const char *CacheGroup = "Data cache; bus-based interconnection";
  const char *NetGroup = "No cache; network interconnection";
  const char *MixedGroup = "Mixed";
  Rows.push_back(
      {std::make_unique<CacheSystem>(0.80, 2, 5), {2, 2.6}, CacheGroup});
  Rows.push_back(
      {std::make_unique<CacheSystem>(0.80, 2, 10), {2, 3.6}, CacheGroup});
  Rows.push_back(
      {std::make_unique<CacheSystem>(0.95, 2, 5), {2, 2.15}, CacheGroup});
  Rows.push_back(
      {std::make_unique<CacheSystem>(0.95, 2, 10), {2, 2.4}, CacheGroup});
  Rows.push_back({std::make_unique<NetworkSystem>(2, 2), {2}, NetGroup});
  Rows.push_back({std::make_unique<NetworkSystem>(3, 2), {3}, NetGroup});
  Rows.push_back({std::make_unique<NetworkSystem>(5, 2), {5}, NetGroup});
  Rows.push_back({std::make_unique<NetworkSystem>(2, 5), {2}, NetGroup});
  Rows.push_back({std::make_unique<NetworkSystem>(3, 5), {3}, NetGroup});
  Rows.push_back({std::make_unique<NetworkSystem>(5, 5), {5}, NetGroup});
  Rows.push_back({std::make_unique<NetworkSystem>(30, 5), {30}, NetGroup});
  Rows.push_back(
      {std::make_unique<MixedSystem>(0.80, 2, 30, 5), {2, 7.6}, MixedGroup});
  return Rows;
}

/// The paper's simulation parameters (section 4.3).
inline SimulationConfig paperSimulation(
    ProcessorModel Processor = ProcessorModel::unlimited()) {
  SimulationConfig Config;
  Config.Processor = Processor;
  Config.NumRuns = 30;
  Config.NumResamples = 100;
  return Config;
}

/// Every Perfect Club stand-in, built once so an experiment matrix can
/// borrow the same Function across all of its cells (a prerequisite for
/// the engine's compile cache to fire across system rows).
inline std::vector<std::pair<Benchmark, Function>> paperPrograms() {
  std::vector<std::pair<Benchmark, Function>> Programs;
  for (Benchmark B : allBenchmarks())
    Programs.emplace_back(B, buildBenchmark(B));
  return Programs;
}

/// Runs \p Cells through a fresh experiment engine (worker count from
/// BSCHED_JOBS, else hardware concurrency) observed through \p Obs, and
/// prints the run's accounting line. A failed cell degrades that cell
/// only; callers render it as "n/a" and keep printing the table.
inline EngineResult runEngineMatrix(const std::vector<ExperimentCell> &Cells,
                                    ObsContext Obs = {}) {
  ExperimentEngine Engine(0, Obs);
  EngineResult Result = Engine.run(Cells);
  const EngineCounters &C = Result.Counters;
  std::printf("[engine] %u workers, %u cells (%u failed), "
              "%u hits / %u misses in the compile cache, %.0f ms\n\n",
              C.Workers, C.Cells, C.Failed, C.CacheHits, C.CacheMisses,
              C.WallMillis);
  return Result;
}

/// Writes the finished JSON document \p W to `BENCH_<name>.json` in the
/// working directory and prints where it went. Every benchmark emits one
/// of these so CI and EXPERIMENTS.md updates can diff machine-readable
/// numbers instead of scraping the human tables.
inline bool writeBenchArtifact(const std::string &Name, const JsonWriter &W) {
  std::string Path = "BENCH_" + Name + ".json";
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (Out)
    Out << W.str() << '\n';
  if (!Out) {
    std::fprintf(stderr, "warning: could not write %s\n", Path.c_str());
    return false;
  }
  std::printf("[artifact] wrote %s\n", Path.c_str());
  return true;
}

/// Counter lookup in a snapshot; 0 when absent (BSCHED_NO_OBS builds).
inline uint64_t counterOrZero(const MetricSnapshot &Snapshot,
                              const std::string &Name) {
  auto It = Snapshot.Counters.find(Name);
  return It == Snapshot.Counters.end() ? 0 : It->second;
}

} // namespace bsched::bench

#endif // BSCHED_BENCH_BENCHCOMMON_H
