//===- bench/BenchCommon.h - Shared experiment definitions -----*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared configuration for the table/figure reproduction binaries: the
/// paper's twelve memory systems (section 4.5) with their "Optimistic
/// Latency" values (Table 2's 17 rows), and the simulation settings of
/// section 4.3 (30 runs per block, 100 bootstrap sample means, 95% CIs).
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_BENCH_BENCHCOMMON_H
#define BSCHED_BENCH_BENCHCOMMON_H

#include "pipeline/ExperimentEngine.h"
#include "sim/MemorySystem.h"
#include "support/FailPoint.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "workload/PerfectClub.h"

#include <cmath>
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

/// The twelve memory systems of Table 2 (17 rows), in the paper's order.
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

/// False, after printing why, when BSCHED_FAILPOINTS is malformed: such a
/// spec arms nothing, so a run under it would pass for a chaos run. Every
/// bench main checks this before running and exits with its usage code.
inline bool failPointSpecOk() {
  std::string Error = FailPointRegistry::instance().envError();
  if (!Error.empty())
    std::fprintf(stderr, "error: %s\n", Error.c_str());
  return Error.empty();
}

/// Counter lookup in a snapshot; 0 when the counter was never registered.
inline uint64_t counterOrZero(const MetricSnapshot &Snapshot,
                              const std::string &Name) {
  auto It = Snapshot.Counters.find(Name);
  return It == Snapshot.Counters.end() ? 0 : It->second;
}

} // namespace bsched::bench

#endif // BSCHED_BENCH_BENCHCOMMON_H
