//===- bench/bench_huge_dag.cpp - Huge-DAG scaling study ------------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// The huge-DAG scaling study (DESIGN.md §3m): blocks far beyond the
// paper's working set, over the deterministic huge-block family
// (workload/HugeBlocks.h).
//
//  1. Closure sweep at n ∈ {2048..16384}: union-find weighting time per
//     pass and the Succ*/Pred* matrix footprint it allocates.
//  2. Weighting throughput at the paper-scale working set (n <= 512) and
//     at huge sizes — the >= 1M instr/s guard lives at n=512, where the
//     per-contributor sweep is cache-resident.
//  3. A full default-config pipeline compile at n=8192 (the governor's
//     default budget must admit it).
//  4. Block-parallel compile at 1/2/4/8 workers over an 8 x n=2048
//     function: wall times, bootstrap 95% CIs against the 1-worker
//     baseline, and a bit-identity check per worker count.
//
// `--smoke` compiles n=4096 through the default-governed pipeline, runs
// one tiny sweep iteration, and compiles a 4 x n=1024 function serially
// and on a 4-worker pool, failing unless the two outputs are identical;
// no artifact (the ctest perf-smoke gate).
// Full runs write BENCH_huge_dag.json next to EXPERIMENTS.md. A malformed
// BSCHED_FAILPOINTS exits 2 before anything runs.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "dag/DagBuilder.h"
#include "ir/IrPrinter.h"
#include "pipeline/Pipeline.h"
#include "sched/BalancedWeighter.h"
#include "sched/WeighterScratch.h"
#include "stats/Bootstrap.h"
#include "support/ThreadPool.h"
#include "workload/HugeBlocks.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace bsched;
using namespace bsched::bench;

namespace {

double nowMillis() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

/// Mean milliseconds per run of Fn over \p Iters runs.
template <typename FnT> double timeMs(unsigned Iters, FnT Fn) {
  double Start = nowMillis();
  for (unsigned I = 0; I != Iters; ++I)
    Fn();
  return (nowMillis() - Start) / Iters;
}

//===----------------------------------------------------------------------===
// 1. Closure sweep
//===----------------------------------------------------------------------===

struct ClosureRow {
  unsigned Size;
  double MillisPerPass;
  double NsPerInstr;
  uint64_t MatrixBytes; ///< Succ* + Pred* matrices the weighter allocates.
};

std::vector<ClosureRow> runClosureSweep(const std::vector<unsigned> &Sizes,
                                        unsigned Iters) {
  std::vector<ClosureRow> Rows;
  WeighterScratch Scratch;
  BalancedWeighter W(LatencyModel(), ChancesMethod::UnionFindLevels);
  for (unsigned Size : Sizes) {
    Function F = buildHugeBlock(Size);
    DepDag Dag = buildDag(F.block(0));
    W.assignWeights(Dag, Scratch); // Warm the scratch once.
    double Ms = timeMs(Iters, [&] { W.assignWeights(Dag, Scratch); });
    uint64_t Bytes = 2 * uint64_t{Size} * ((Size + 63) / 64) * 8;
    Rows.push_back({Size, Ms, Ms * 1e6 / Size, Bytes});
    std::printf("[closure] n=%-5u %9.2f ms/pass, %8.1f ns/instr, "
                "matrices %.1f MiB\n",
                Size, Ms, Rows.back().NsPerInstr, Bytes / (1024.0 * 1024.0));
  }
  return Rows;
}

//===----------------------------------------------------------------------===
// 2. Weighting throughput at the paper-scale working set
//===----------------------------------------------------------------------===

struct ThroughputRow {
  std::string Workload;
  unsigned Instructions;
  double NsPerInstr;
  double InstrPerSec;
};

/// Best-of-5 mean weighting time over pre-built DAGs (build cost excluded:
/// the pipeline amortizes it over both weighting passes, and this section
/// measures the weighter).
ThroughputRow timeWeighting(std::string Workload, std::vector<DepDag> &Dags,
                            unsigned Iters) {
  WeighterScratch Scratch;
  BalancedWeighter W(LatencyModel(), ChancesMethod::UnionFindLevels);
  unsigned Instructions = 0;
  for (DepDag &Dag : Dags) {
    Instructions += Dag.size();
    W.assignWeights(Dag, Scratch); // Warm the scratch.
  }
  auto Pass = [&] {
    for (DepDag &Dag : Dags)
      W.assignWeights(Dag, Scratch);
  };
  double BestMs = timeMs(Iters, Pass);
  for (unsigned B = 1; B < 5; ++B)
    BestMs = std::min(BestMs, timeMs(Iters, Pass));
  ThroughputRow Row{std::move(Workload), Instructions,
                    BestMs * 1e6 / Instructions,
                    Instructions / (BestMs / 1e3)};
  std::printf("[throughput] %-12s %6u instrs, union-find weighting "
              "%8.1f ns/instr = %.2fM instr/s\n",
              Row.Workload.c_str(), Instructions, Row.NsPerInstr,
              Row.InstrPerSec / 1e6);
  return Row;
}

/// The >= 1M instr/s guard measures the paper evaluation suite — the block
/// population the pipeline actually weights — in two rows: the paper-scale
/// blocks (n <= 128, the sizes the paper's own evaluation tables cover)
/// where the guard must hold, and the whole suite including its largest
/// synthetic blocks. Balanced weighting is inherently
/// Theta(sum |G_ind| + E_ind) per block, so per-instruction cost must grow
/// with n; the huge sizes follow as the scaling tail — the interesting
/// question there is how gently it grows, and what memory the closure
/// needs (the closure sweep above).
std::vector<ThroughputRow>
runThroughputGuard(const std::vector<unsigned> &HugeSizes, unsigned Iters) {
  std::vector<ThroughputRow> Rows;
  {
    std::vector<DepDag> All, PaperScale;
    for (Benchmark B : allBenchmarks()) {
      Function F = buildBenchmark(B);
      for (unsigned BI = 0; BI != F.numBlocks(); ++BI) {
        DepDag Dag = buildDag(F.block(BI));
        if (Dag.size() <= 128)
          PaperScale.push_back(buildDag(F.block(BI)));
        All.push_back(std::move(Dag));
      }
    }
    Rows.push_back(timeWeighting("paper-scale", PaperScale, Iters));
    Rows.push_back(timeWeighting("paper-suite", All, Iters));
  }
  for (unsigned Size : HugeSizes) {
    Function F = buildHugeBlock(Size);
    std::vector<DepDag> Dags;
    Dags.push_back(buildDag(F.block(0)));
    Rows.push_back(
        timeWeighting("huge" + std::to_string(Size), Dags,
                      std::max(1u, Iters / std::max(1u, Size / 256))));
  }
  return Rows;
}

//===----------------------------------------------------------------------===
// 3. Full pipeline compile at n=8192 under the default governor
//===----------------------------------------------------------------------===

struct PipelineRow {
  unsigned Size = 0;
  bool Governed = false;
  bool Succeeded = false;
  bool Degraded = false;
  double WallMs = 0.0;
  unsigned StaticInstructions = 0;
  unsigned StaticSpills = 0;
};

/// One full default-config compile of the n-instruction huge block; with
/// \p Governed, the same compile under an active governor whose budget is
/// the family ceiling (16384-instruction blocks) — the acceptance bar is
/// success at n=8192 with no degradation.
PipelineRow compileHuge(unsigned Size, bool Governed) {
  Function F = buildHugeBlock(Size);
  PipelineConfig Config = PipelineConfig::paperDefault();
  if (Governed) {
    Config.Budget.MaxInstructionsPerBlock = 16384;
    Config.Budget.Degrade = true;
  }
  PipelineRow Row;
  Row.Size = Size;
  Row.Governed = Governed;
  double Start = nowMillis();
  ErrorOr<CompiledFunction> Result = runPipeline(F, Config);
  Row.WallMs = nowMillis() - Start;
  Row.Succeeded = Result.has_value();
  if (Result) {
    Row.Degraded = Result->Degradation != DegradationLevel::None;
    Row.StaticInstructions = Result->StaticInstructions;
    Row.StaticSpills = Result->StaticSpills;
    std::printf("[pipeline] n=%u %s: %.0f ms, %u instrs, %u spills, "
                "degradation %s\n",
                Size, Governed ? "governed" : "default config", Row.WallMs,
                Row.StaticInstructions, Row.StaticSpills,
                std::string(degradationName(Result->Degradation)).c_str());
  } else {
    std::fprintf(stderr, "[pipeline] n=%u FAILED:\n%s\n", Size,
                 Result.errorText().c_str());
  }
  return Row;
}

//===----------------------------------------------------------------------===
// 4. Block-parallel compile worker scaling
//===----------------------------------------------------------------------===

struct ScalingRow {
  unsigned Workers;
  double MeanMs;
  double Speedup;           ///< Baseline mean / this mean.
  double ImprovePercent;    ///< Paired bootstrap improvement vs baseline.
  Interval ImproveCi95;
  bool Identical;
};

std::vector<ScalingRow> runWorkerScaling(unsigned BlocksCount, unsigned Size,
                                         unsigned Repeats) {
  Function F = buildHugeFunction(BlocksCount, Size);
  PipelineConfig Config = PipelineConfig::paperDefault();
  const std::vector<unsigned> WorkerCounts = {1u, 2u, 4u, 8u};

  // Measurements are interleaved round-robin across worker counts, not
  // taken in sequential per-count blocks: on a shared host, background
  // load drifts over the minutes this takes, and a sequential design
  // would credit (or charge) that drift entirely to whichever counts ran
  // last. Interleaving spreads any drift evenly over every count, so the
  // paired bootstrap below compares like with like.
  std::vector<std::unique_ptr<ThreadPool>> Pools;
  std::vector<PipelineConfig> Runs;
  std::vector<std::string> Texts(WorkerCounts.size());
  std::vector<std::vector<double>> Samples(WorkerCounts.size());
  for (unsigned Workers : WorkerCounts) {
    Pools.push_back(std::make_unique<ThreadPool>(Workers));
    PipelineConfig Run = Config;
    if (Workers > 1)
      Run.WeighterPool = Pools.back().get();
    Runs.push_back(Run);
  }

  std::vector<ScalingRow> Rows;
  for (unsigned I = 0; I != Repeats + 1; ++I) {
    for (size_t W = 0; W != WorkerCounts.size(); ++W) {
      double Start = nowMillis();
      ErrorOr<CompiledFunction> Result = runPipeline(F, Runs[W]);
      double Wall = nowMillis() - Start;
      if (!Result) {
        std::fprintf(stderr, "[scaling] %u-worker compile failed\n",
                     WorkerCounts[W]);
        return Rows;
      }
      if (I == 0) // Warm-up round: capture output, discard the time.
        Texts[W] = printFunction(Result->Compiled);
      else
        Samples[W].push_back(Wall);
    }
  }

  Rng R(0x5CA11);
  double BaselineMean = 0.0;
  for (size_t W = 0; W != WorkerCounts.size(); ++W) {
    double Mean = 0.0;
    for (double S : Samples[W])
      Mean += S;
    Mean /= Samples[W].size();

    ScalingRow Row;
    Row.Workers = WorkerCounts[W];
    Row.MeanMs = Mean;
    if (W == 0) {
      BaselineMean = Mean;
      Row.Speedup = 1.0;
      Row.Identical = true;
    } else {
      Row.Speedup = Mean > 0.0 ? BaselineMean / Mean : 0.0;
      Row.Identical = Texts[W] == Texts[0];
      // The paper's methodology applied to wall times: bootstrap means of
      // each sample set, paired percentage improvement with a 95% CI.
      ImprovementEstimate E = pairedImprovement(
          bootstrapMeans(Samples[0], 100, R),
          bootstrapMeans(Samples[W], 100, R));
      Row.ImprovePercent = E.MeanPercent;
      Row.ImproveCi95 = E.Ci95;
    }
    Rows.push_back(Row);
    std::printf("[scaling] %u workers: %8.1f ms mean, speedup %.2fx, "
                "improvement %+.1f%% [%+.1f, %+.1f], identical %s\n",
                Row.Workers, Mean, Row.Speedup, Row.ImprovePercent,
                Row.ImproveCi95.Lo, Row.ImproveCi95.Hi,
                Row.Identical ? "yes" : "NO");
  }
  return Rows;
}

/// Compiles buildHugeFunction(\p BlocksCount, \p Size) serially and on a
/// \p Workers-worker pool, and reports whether both succeeded with the
/// same printed function.
bool pooledCompileMatchesSerial(unsigned BlocksCount, unsigned Size,
                                unsigned Workers) {
  Function F = buildHugeFunction(BlocksCount, Size);
  PipelineConfig Serial = PipelineConfig::paperDefault();
  ThreadPool Pool(Workers);
  PipelineConfig Pooled = Serial;
  Pooled.WeighterPool = &Pool;
  ErrorOr<CompiledFunction> SerialOr = runPipeline(F, Serial);
  ErrorOr<CompiledFunction> PooledOr = runPipeline(F, Pooled);
  bool Identical = SerialOr && PooledOr &&
                   printFunction(SerialOr->Compiled) ==
                       printFunction(PooledOr->Compiled);
  std::printf("[pooled] %u x n=%u on %u workers: %s\n", BlocksCount, Size,
              Workers, Identical ? "identical to serial" : "MISMATCH");
  return Identical;
}

//===----------------------------------------------------------------------===
// Artifact
//===----------------------------------------------------------------------===

void writeArtifact(const std::vector<ClosureRow> &Closure,
                   const std::vector<ThroughputRow> &Throughput,
                   const std::vector<PipelineRow> &Pipeline,
                   const std::vector<ScalingRow> &Scaling,
                   unsigned HostConcurrency) {
  JsonWriter W;
  W.beginObject();
  W.key("benchmark").value("huge_dag");
  W.key("host_hardware_concurrency").value(HostConcurrency);

  W.key("closure_sweep").beginArray();
  for (const ClosureRow &Row : Closure) {
    W.beginObject();
    W.key("block_size").value(Row.Size);
    W.key("ms_per_pass").valueFixed(Row.MillisPerPass, 3);
    W.key("ns_per_instr").valueFixed(Row.NsPerInstr, 1);
    W.key("closure_bytes").value(Row.MatrixBytes);
    W.endObject();
  }
  W.endArray();

  W.key("uf_weighting_throughput").beginArray();
  for (const ThroughputRow &Row : Throughput) {
    W.beginObject();
    W.key("workload").value(Row.Workload);
    W.key("instructions").value(Row.Instructions);
    W.key("ns_per_instr").valueFixed(Row.NsPerInstr, 1);
    W.key("instr_per_sec").valueFixed(Row.InstrPerSec, 0);
    W.endObject();
  }
  W.endArray();

  W.key("pipeline_compiles").beginArray();
  for (const PipelineRow &Row : Pipeline) {
    W.beginObject();
    W.key("block_size").value(Row.Size);
    W.key("governed").value(Row.Governed);
    W.key("succeeded").value(Row.Succeeded);
    W.key("degraded").value(Row.Degraded);
    W.key("wall_ms").valueFixed(Row.WallMs, 1);
    W.key("static_instructions").value(Row.StaticInstructions);
    W.key("static_spills").value(Row.StaticSpills);
    W.endObject();
  }
  W.endArray();

  W.key("worker_scaling").beginArray();
  for (const ScalingRow &Row : Scaling) {
    W.beginObject();
    W.key("workers").value(Row.Workers);
    W.key("mean_wall_ms").valueFixed(Row.MeanMs, 2);
    W.key("speedup").valueFixed(Row.Speedup, 3);
    W.key("improvement_percent").valueFixed(Row.ImprovePercent, 2);
    W.key("improvement_ci95").beginArray();
    W.valueFixed(Row.ImproveCi95.Lo, 2);
    W.valueFixed(Row.ImproveCi95.Hi, 2);
    W.endArray();
    W.key("identical_to_serial").value(Row.Identical);
    W.endObject();
  }
  W.endArray();

  W.endObject();
  writeBenchArtifact("huge_dag", W);
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
  if (!failPointSpecOk())
    return 2;

  if (Smoke) {
    // The perf-smoke gate: one n=4096 compile under an active governor
    // budget, one closure-sweep pass, and one pooled compile (governed
    // compiles stay serial, so it runs unbudgeted). No artifact, no timing
    // thresholds — this proves the huge paths execute, not how fast — but
    // degradation is a failure: the budget must admit the exact policy.
    PipelineRow Row = compileHuge(4096, /*Governed=*/true);
    if (!Row.Succeeded || Row.Degraded)
      return 1;
    runClosureSweep({4096}, 1);
    return pooledCompileMatchesSerial(/*BlocksCount=*/4, /*Size=*/1024,
                                      /*Workers=*/4)
               ? 0
               : 1;
  }

  std::printf("Huge-DAG scaling study (deterministic huge-block family).\n\n");
  std::vector<ClosureRow> Closure =
      runClosureSweep(hugeBlockSizes(), /*Iters=*/3);
  std::printf("\n");
  std::vector<ThroughputRow> Throughput =
      runThroughputGuard({512, 2048, 8192}, /*Iters=*/20);
  std::printf("\n");
  std::vector<PipelineRow> Pipeline = {compileHuge(8192, /*Governed=*/false),
                                       compileHuge(8192, /*Governed=*/true)};
  std::printf("\n");
  std::vector<ScalingRow> Scaling =
      runWorkerScaling(/*BlocksCount=*/8, /*Size=*/2048, /*Repeats=*/7);

  ThreadPool Probe(0);
  writeArtifact(Closure, Throughput, Pipeline, Scaling,
                Probe.workerCount());
  return 0;
}
