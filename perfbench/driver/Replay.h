//===- perfbench/driver/Replay.h - Layer-by-layer replay -------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run times every layer from outside the program: instead of
/// calling runPipeline, runSimulation or the compile cache, it calls each
/// layer's public function itself, in the order those entry points use,
/// with a span (Tracer.h) around each call. The traced run then checks that
/// every replayed op produced exactly what the real entry points produce,
/// so the per-layer numbers describe the program the untraced run measured.
///
/// The replay covers the configurations the workloads use: no resource
/// budget, no armed fail points and no weighter pool. Those are the paths
/// where runPipeline takes no governor, fault or prepass branch. It records
/// the same metrics the real entry points record, into the same kind of
/// registry, so every layer does the same work as in the untraced run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DRIVER_REPLAY_H
#define PERFBENCH_DRIVER_REPLAY_H

#include "Common.h"

#include "pipeline/CompileCache.h"
#include "pipeline/Experiment.h"
#include "pipeline/Pipeline.h"

#include <atomic>
#include <mutex>
#include <string>
#include <unordered_set>

namespace perfbench {

/// Counts gathered at the layer boundaries (shared by replay threads).
struct ReplayCounters {
  std::atomic<uint64_t> DagNodes{0};
  std::atomic<uint64_t> DagEdges{0};
  std::atomic<uint64_t> AliasQueries{0};
  std::atomic<uint64_t> MemEdgesPruned{0};
  std::atomic<uint64_t> Compiles{0};
  std::atomic<uint64_t> SpillInstrs{0};
  std::atomic<uint64_t> Violations{0};
  std::atomic<uint64_t> CacheLookups{0};
  std::atomic<uint64_t> CacheHits{0};

  /// Appends dag.edges_per_instr, dag.mem_edges_pruned_ratio,
  /// regalloc.spill_instrs, pipeline.cache.hit_ratio and
  /// analysis.violations to \p R's per-layer figures.
  void report(RunResult &R) const;
};

/// runPipeline, one layer call at a time. Same result, or the same kind of
/// diagnostics, for every config the replay supports; like runPipeline it
/// records the pipeline's counters, and scheduleDag its ready-list
/// histogram, into \p Config.Obs.Metrics when that is set.
bsched::ErrorOr<bsched::CompiledFunction>
replayPipeline(const bsched::Function &Input,
               const bsched::PipelineConfig &Config, ReplayCounters &Counters);

/// runSimulation, one simulateBlock and bootstrapMeans call at a time.
/// \p Config.Obs.Metrics, when set, receives the simulator's counters as
/// it does under runSimulation.
bsched::ErrorOr<bsched::ProgramSimResult>
replaySimulation(const bsched::CompiledFunction &Program,
                 const bsched::MemorySystem &Memory,
                 const bsched::SimulationConfig &Config);

/// The compile cache as the replay drives it: a real CompileCache, which
/// serves every hit, and a record of the compiles it holds. CompileCache::
/// compile fuses key, lookup and compile, so a miss cannot go through it
/// layer by layer; the replay compiles a miss itself, and the real cache
/// learns it afterwards, outside the op's spans (fillMisses), by compiling
/// it once more. A compile is known by its function's name, policy and
/// optimistic latency, which fix its cache key in every workload the cache
/// serves (their other config fields are the same for every compile).
class ReplayCache {
public:
  /// The real cache, configured as the program under test configures it.
  ReplayCache(bsched::CompileCacheConfig Config,
              bsched::MetricRegistry *Metrics)
      : Real(Config, Metrics) {}

  /// Puts every miss the calling thread replayed since its last call into
  /// the real cache, so later ops hit it. Call between ops, while the
  /// functions those misses compiled are still alive.
  void fillMisses();

private:
  friend bsched::ErrorOr<bsched::CompiledFunction>
  replayCachedCompile(ReplayCache &, const bsched::Function &,
                      const bsched::PipelineConfig &, ReplayCounters &,
                      bool *, bsched::MetricRegistry *);

  bool holds(const std::string &Identity);

  bsched::CompileCache Real;
  std::mutex Mutex;
  std::unordered_set<std::string> Held;
};

/// CompileCache::compile replayed, with its \p WasHit and \p Sink. A hit
/// is the real CompileCache::compile; a miss is experimentCacheKey, then
/// replayPipeline into a private registry whose snapshot goes to the sink,
/// as CompileCache does. A compile the record says is cached but the real
/// cache no longer holds fails with a diagnostic.
bsched::ErrorOr<bsched::CompiledFunction>
replayCachedCompile(ReplayCache &Cache, const bsched::Function &F,
                    const bsched::PipelineConfig &Config,
                    ReplayCounters &Counters, bool *WasHit,
                    bsched::MetricRegistry *Sink);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_REPLAY_H
