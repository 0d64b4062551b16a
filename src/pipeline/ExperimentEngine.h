//===- pipeline/ExperimentEngine.h - Parallel experiment engine -*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel experiment engine: fans a kernel x configuration matrix
/// across a worker pool, memoizes compiled schedules keyed by the content
/// of (function, pipeline config), and records per-cell wall time,
/// cache-hit and fault counters in a machine-readable summary.
///
/// Determinism contract: a cell's measurements are a pure function of its
/// inputs — every latency stream is seeded per (block, run) from the
/// cell's own SimulationConfig::Seed, never shared between cells — so the
/// engine's results are bit-identical to running the same cells serially,
/// regardless of worker count or completion order. Outcomes land at the
/// index of their input cell. Only the informational cache/wall counters
/// may vary between runs (two workers can race to first-compile a shared
/// key; both compute the identical result).
///
/// Fault isolation: a cell whose config fails validation, whose kernel
/// fails verification, or whose compile or simulation reports diagnostics
/// degrades that cell only; every other cell still completes.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_PIPELINE_EXPERIMENTENGINE_H
#define BSCHED_PIPELINE_EXPERIMENTENGINE_H

#include "obs/Metrics.h"
#include "pipeline/CompileCache.h"
#include "pipeline/Experiment.h"
#include "support/ThreadPool.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace bsched {

/// One cell of an experiment matrix: a kernel against a memory system
/// under one candidate policy and pipeline/simulation configuration.
/// Program and Memory are borrowed and must outlive the engine run.
struct ExperimentCell {
  std::string Label;                       ///< Reporting name ("ADM/dcache").
  const Function *Program = nullptr;       ///< Kernel to compile and measure.
  const MemorySystem *Memory = nullptr;    ///< Latency distribution.
  double OptimisticLatency = 2.0;          ///< Traditional load weight.
  SchedulerPolicy Candidate = SchedulerPolicy::Balanced;
  PipelineConfig Base;                     ///< Shared pipeline knobs.
  SimulationConfig Sim;                    ///< Simulation + bootstrap knobs.
};

/// Outcome of one cell: the comparison on success, the diagnostics
/// explaining the failure otherwise, plus per-cell accounting.
struct CellOutcome {
  std::string Label;
  std::optional<SchedulerComparison> Comparison;
  std::vector<Diagnostic> Errors;

  double WallMillis = 0.0;  ///< Wall time this cell spent in its worker.
  unsigned CacheHits = 0;   ///< Compilations served from the engine cache.
  unsigned CacheMisses = 0; ///< Compilations actually run for this cell.

  bool ok() const { return Comparison.has_value(); }

  /// First error diagnostic, formatted; empty when the cell succeeded.
  std::string firstError() const;
};

/// Matrix-wide accounting, aggregated over every cell of a run.
struct EngineCounters {
  unsigned Workers = 0;     ///< Resolved worker count of the run.
  unsigned Cells = 0;       ///< Cells executed.
  unsigned Failed = 0;      ///< Cells that degraded to diagnostics.
  unsigned CacheHits = 0;   ///< Sum of per-cell cache hits.
  unsigned CacheMisses = 0; ///< Sum of per-cell cache misses.
  double WallMillis = 0.0;     ///< Whole-matrix wall time (one clock).
  double CellWallMillis = 0.0; ///< Sum of per-cell wall times.
};

/// A whole engine run: per-cell outcomes (input order) plus counters.
struct EngineResult {
  std::vector<CellOutcome> Cells;
  EngineCounters Counters;

  /// The machine-readable summary: one JSON object with the run counters
  /// and a per_cell array of {label, ok, wall_ms, cache_hits,
  /// cache_misses, error}.
  std::string summaryJson() const;
};

/// True when two runs produced the same measurements: cell for cell, the
/// same labels, the same compiled programs (printed form and spill
/// statistics), bit-identical bootstrap runtimes and improvement
/// estimates, and the same diagnostics for failed cells. Counters, wall
/// times and cache hits are deliberately excluded — they are the only
/// fields allowed to differ between a serial and a parallel run.
bool identicalEngineResults(const EngineResult &A, const EngineResult &B);

/// The engine. Owns a ThreadPool (Jobs = 0 resolves to BSCHED_JOBS or
/// hardware concurrency; 1 runs inline on the caller's thread — the
/// serial baseline) and a CompileCache shared across run() calls, so
/// repeated matrices over the same kernels recompile nothing. The cache
/// may also be supplied from outside (the bsched_server hands every
/// engine the daemon-wide sharded cache), in which case entries persist
/// across engines and requests.
class ExperimentEngine {
public:
  /// \p Obs supplies the engine's only observability sinks: Obs.Trace
  /// receives every compile/sim span of the run, and every cell records
  /// its compile and simulation metrics straight into Obs.Metrics, which
  /// also gets the run's `bsched.engine.*` counters. Without a registry
  /// nothing is recorded. What lands there:
  ///  - `bsched.sim.*` totals are a pure function of the cells, so serial
  ///    and pooled runs record equal totals;
  ///  - compile counters (`bsched.pipeline.*`, `bsched.dag.*`,
  ///    `bsched.sched.*`, `bsched.analysis.*`, `bsched.alias.*`,
  ///    `bsched.governor.*`, `bsched.regalloc.*`) count the compiles that
  ///    ran, like `bsched.engine.cache_misses`: a cache hit records none.
  explicit ExperimentEngine(unsigned Jobs = 0, ObsContext Obs = {})
      : Pool(Jobs), Obs(Obs),
        Cache(std::make_shared<CompileCache>(
            CompileCacheConfig::unlimited())) {}

  /// Engine over a shared (possibly bounded) cross-request cache.
  ExperimentEngine(unsigned Jobs, ObsContext Obs,
                   std::shared_ptr<CompileCache> SharedCache)
      : Pool(Jobs), Obs(Obs), Cache(std::move(SharedCache)) {
    BSCHED_CHECK(Cache != nullptr, "engine requires a compile cache");
  }

  unsigned workerCount() const { return Pool.workerCount(); }

  /// Runs every cell (validating its config at entry), fanning across the
  /// pool. Outcome I corresponds to Cells[I] whatever the execution order.
  EngineResult run(const std::vector<ExperimentCell> &Cells);

  /// The memoizing compiler every cell compiles through (possibly shared
  /// with other engines or a server).
  CompileCache &cache() { return *Cache; }

private:
  class ProgramKeys;

  CellOutcome runCell(const ExperimentCell &Cell, ProgramKeys &Keys);

  ThreadPool Pool;
  ObsContext Obs;
  std::shared_ptr<CompileCache> Cache;
};

} // namespace bsched

#endif // BSCHED_PIPELINE_EXPERIMENTENGINE_H
