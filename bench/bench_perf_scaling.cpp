//===- bench/bench_perf_scaling.cpp - Algorithm scaling benchmarks --------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// Google-benchmark microbenchmarks backing the paper's section 3
// complexity analysis: list scheduling is O(n^2); balanced weighting is
// O(n^2 a(n)) with the union-find trick — "nearly as efficient". We sweep
// block sizes and report per-size timings for the DAG builder, both
// weighters (optimized scratch kernel and the retained allocating
// reference) and the list scheduler, then emit BENCH_perf_scaling.json
// with the before/after ns-per-instruction table, the pipeline's
// weighter_* scratch-reuse counters, and block-parallel compile wall
// times. `--smoke` runs a one-iteration sweep with no artifact (the ctest
// perf-smoke gate).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "dag/DagBuilder.h"
#include "ir/IrBuilder.h"
#include "obs/Metrics.h"
#include "pipeline/Pipeline.h"
#include "sched/BalancedWeighter.h"
#include "sched/ListScheduler.h"
#include "sched/TraditionalWeighter.h"
#include "sched/WeighterScratch.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace bsched;
using namespace bsched::bench;

namespace {

/// A synthetic block of the given size with a realistic mix: chained
/// cursor loads, FP arithmetic over live values, occasional stores.
BasicBlock makeBlock(unsigned Size) {
  static Function F("bench"); // Shared register/alias namespace is fine.
  BasicBlock &BB = F.addBlock("b" + std::to_string(Size));
  IrBuilder B(F, BB);
  Rng R(Size * 977 + 13);

  Reg Cursor = B.emitLoadImm(4096);
  std::vector<Reg> Fps{B.emitFLoadImm(1.0)};
  auto PickFp = [&] { return Fps[R.nextBounded(Fps.size())]; };
  while (BB.size() < Size) {
    switch (R.nextBounded(6)) {
    case 0:
      Fps.push_back(B.emitFLoad(Cursor, 0, 0));
      break;
    case 1:
      B.emitAdvance(Cursor, 8);
      break;
    case 2:
      B.emitStore(PickFp(), Cursor, 8, 1);
      break;
    default:
      Fps.push_back(B.emitBinary(Opcode::FMul, PickFp(), PickFp()));
      break;
    }
    if (Fps.size() > 24)
      Fps.erase(Fps.begin(), Fps.begin() + 12);
  }
  return BB;
}

void BM_DagBuild(benchmark::State &State) {
  BasicBlock BB = makeBlock(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    DepDag Dag = buildDag(BB);
    benchmark::DoNotOptimize(Dag.numEdges());
  }
  State.SetComplexityN(State.range(0));
}

void BM_TraditionalWeights(benchmark::State &State) {
  BasicBlock BB = makeBlock(static_cast<unsigned>(State.range(0)));
  DepDag Dag = buildDag(BB);
  TraditionalWeighter W(2.0);
  for (auto _ : State) {
    W.assignWeights(Dag);
    benchmark::DoNotOptimize(Dag.weight(0));
  }
  State.SetComplexityN(State.range(0));
}

void BM_BalancedWeightsExact(benchmark::State &State) {
  BasicBlock BB = makeBlock(static_cast<unsigned>(State.range(0)));
  DepDag Dag = buildDag(BB);
  BalancedWeighter W(LatencyModel(), ChancesMethod::ExactLongestPath);
  WeighterScratch Scratch; // Reused across iterations, as in the pipeline.
  for (auto _ : State) {
    W.assignWeights(Dag, Scratch);
    benchmark::DoNotOptimize(Dag.weight(0));
  }
  State.SetComplexityN(State.range(0));
}

void BM_BalancedWeightsUnionFind(benchmark::State &State) {
  BasicBlock BB = makeBlock(static_cast<unsigned>(State.range(0)));
  DepDag Dag = buildDag(BB);
  BalancedWeighter W(LatencyModel(), ChancesMethod::UnionFindLevels);
  WeighterScratch Scratch;
  for (auto _ : State) {
    W.assignWeights(Dag, Scratch);
    benchmark::DoNotOptimize(Dag.weight(0));
  }
  State.SetComplexityN(State.range(0));
}

void BM_BalancedWeightsExactReference(benchmark::State &State) {
  BasicBlock BB = makeBlock(static_cast<unsigned>(State.range(0)));
  DepDag Dag = buildDag(BB);
  BalancedWeighter W(LatencyModel(), ChancesMethod::ExactLongestPath);
  for (auto _ : State) {
    W.assignWeightsReference(Dag);
    benchmark::DoNotOptimize(Dag.weight(0));
  }
  State.SetComplexityN(State.range(0));
}

void BM_BalancedWeightsUnionFindReference(benchmark::State &State) {
  BasicBlock BB = makeBlock(static_cast<unsigned>(State.range(0)));
  DepDag Dag = buildDag(BB);
  BalancedWeighter W(LatencyModel(), ChancesMethod::UnionFindLevels);
  for (auto _ : State) {
    W.assignWeightsReference(Dag);
    benchmark::DoNotOptimize(Dag.weight(0));
  }
  State.SetComplexityN(State.range(0));
}

void BM_ListScheduler(benchmark::State &State) {
  BasicBlock BB = makeBlock(static_cast<unsigned>(State.range(0)));
  DepDag Dag = buildDag(BB);
  BalancedWeighter().assignWeights(Dag);
  for (auto _ : State) {
    Schedule Sched = scheduleDag(Dag);
    benchmark::DoNotOptimize(Sched.Order.data());
  }
  State.SetComplexityN(State.range(0));
}

//===----------------------------------------------------------------------===
// The artifact sweep: hand-timed before/after ns-per-instruction table.
// Google-benchmark owns the console report above; the JSON document wants
// paired reference/optimized numbers per (size, method), which is simpler
// to produce directly than to scrape back out of gbench.
//===----------------------------------------------------------------------===

double nowMillis() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

/// Times Fn over \p Iters runs and returns mean nanoseconds per run.
template <typename FnT> double timeNs(unsigned Iters, FnT Fn) {
  double Start = nowMillis();
  for (unsigned I = 0; I != Iters; ++I)
    Fn();
  return (nowMillis() - Start) * 1e6 / Iters;
}

/// Best (minimum) of \p Batches timeNs measurements — the steady-state
/// figure, insensitive to scheduler noise the way gbench's long runs are.
template <typename FnT>
double timeNsBest(unsigned Batches, unsigned Iters, FnT Fn) {
  double Best = timeNs(Iters, Fn);
  for (unsigned B = 1; B != Batches; ++B)
    Best = std::min(Best, timeNs(Iters, Fn));
  return Best;
}

struct SweepRow {
  unsigned Size;
  const char *Method;
  double ReferenceNsPerInstr;
  double OptimizedNsPerInstr;
  double speedup() const {
    return OptimizedNsPerInstr == 0.0
               ? 0.0
               : ReferenceNsPerInstr / OptimizedNsPerInstr;
  }
};

std::vector<SweepRow> runWeighterSweep(const std::vector<unsigned> &Sizes,
                                       unsigned Iters) {
  std::vector<SweepRow> Rows;
  struct MethodSpec {
    ChancesMethod Method;
    const char *Name;
  };
  const MethodSpec Methods[] = {{ChancesMethod::ExactLongestPath, "exact"},
                                {ChancesMethod::UnionFindLevels,
                                 "union-find"}};
  for (unsigned Size : Sizes) {
    BasicBlock BB = makeBlock(Size);
    DepDag Dag = buildDag(BB);
    for (const MethodSpec &M : Methods) {
      BalancedWeighter W(LatencyModel(), M.Method);
      WeighterScratch Scratch;
      W.assignWeights(Dag, Scratch); // Warm the scratch once.
      double OptNs = timeNs(Iters, [&] { W.assignWeights(Dag, Scratch); });
      double RefNs = timeNs(Iters, [&] { W.assignWeightsReference(Dag); });
      Rows.push_back({Size, M.Name, RefNs / Size, OptNs / Size});
      std::printf("[sweep] n=%-4u %-10s reference %9.1f ns/instr, "
                  "optimized %8.1f ns/instr, speedup %.2fx\n",
                  Size, M.Name, RefNs / Size, OptNs / Size,
                  Rows.back().speedup());
    }
  }
  return Rows;
}

struct SeedComparison {
  const char *Method;
  double SeedNsPerInstr;    // Committed pre-optimization gbench figure.
  double CurrentNsPerInstr; // Measured now, same workload and block size.
  double speedup() const { return SeedNsPerInstr / CurrentNsPerInstr; }
};

/// Re-measures the optimized weighters at the largest swept size and pairs
/// each with the gbench figure recorded at the pre-optimization commit
/// (BM_BalancedWeights{Exact,UnionFind}/512 on the same synthetic block).
/// The in-binary "reference" rows above are not that baseline — the flat
/// connectedComponents/longestLoadPath rewrites sped them up too — so the
/// before/after claim is anchored to the committed numbers instead.
std::vector<SeedComparison> compareAgainstSeed() {
  constexpr unsigned Size = 512;
  constexpr double SeedExactNs = 5526206.0;     // ns/run at the seed commit
  constexpr double SeedUnionFindNs = 3139597.0; // (gbench, same makeBlock).
  BasicBlock BB = makeBlock(Size);
  DepDag Dag = buildDag(BB);

  std::vector<SeedComparison> Rows;
  struct Spec {
    ChancesMethod Method;
    const char *Name;
    double SeedNs;
  };
  for (const Spec &S :
       {Spec{ChancesMethod::ExactLongestPath, "exact", SeedExactNs},
        Spec{ChancesMethod::UnionFindLevels, "union-find",
             SeedUnionFindNs}}) {
    BalancedWeighter W(LatencyModel(), S.Method);
    WeighterScratch Scratch;
    W.assignWeights(Dag, Scratch); // Warm the scratch once.
    double Ns =
        timeNsBest(5, 20, [&] { W.assignWeights(Dag, Scratch); });
    Rows.push_back({S.Name, S.SeedNs / Size, Ns / Size});
    std::printf("[seed] n=%u %-10s seed %9.1f ns/instr, now %8.1f "
                "ns/instr, speedup %.2fx\n",
                Size, S.Name, Rows.back().SeedNsPerInstr,
                Rows.back().CurrentNsPerInstr, Rows.back().speedup());
  }
  return Rows;
}

/// Compiles MDG through the metered pipeline and returns the snapshot with
/// the weighter_* counters (scratch reuse across blocks and passes).
MetricSnapshot meteredPipelineRun() {
  MetricRegistry Registry;
  PipelineConfig Config;
  Config.Obs.Metrics = &Registry;
  Function F = buildBenchmark(Benchmark::MDG);
  if (!runPipeline(F, Config).has_value())
    std::fprintf(stderr, "warning: metered pipeline run failed\n");
  return Registry.snapshot();
}

struct ParallelTiming {
  unsigned Blocks = 0;
  unsigned Workers = 0;
  double SerialMillis = 0.0;
  double ParallelMillis = 0.0;
};

/// Wall time of a full compile, serial vs. block-parallel compile, on a
/// many-block function.
ParallelTiming timeParallelCompile(unsigned Repeats) {
  WorkloadOptions Options;
  Options.UnrollFactor = 8; // Bigger blocks: weighting dominates.
  Function F = buildBenchmark(Benchmark::MDG, Options);

  ParallelTiming T;
  T.Blocks = F.numBlocks();
  ThreadPool Pool(0); // BSCHED_JOBS, else hardware concurrency.
  T.Workers = Pool.workerCount();

  PipelineConfig Serial;
  PipelineConfig Parallel;
  Parallel.WeighterPool = &Pool;

  double Start = nowMillis();
  for (unsigned I = 0; I != Repeats; ++I)
    (void)runPipeline(F, Serial);
  T.SerialMillis = (nowMillis() - Start) / Repeats;

  Start = nowMillis();
  for (unsigned I = 0; I != Repeats; ++I)
    (void)runPipeline(F, Parallel);
  T.ParallelMillis = (nowMillis() - Start) / Repeats;

  std::printf("[parallel] %u blocks, %u workers: serial %.1f ms, "
              "block-parallel compile %.1f ms (%.2fx)\n",
              T.Blocks, T.Workers, T.SerialMillis, T.ParallelMillis,
              T.ParallelMillis == 0.0 ? 0.0
                                      : T.SerialMillis / T.ParallelMillis);
  return T;
}

void writeArtifact(const std::vector<SweepRow> &Sweep,
                   const std::vector<SeedComparison> &Seed,
                   const MetricSnapshot &Counters,
                   const ParallelTiming &Parallel) {
  JsonWriter W;
  W.beginObject();
  W.key("benchmark").value("perf_scaling");

  W.key("weighter_sweep").beginArray();
  for (const SweepRow &Row : Sweep) {
    W.beginObject();
    W.key("block_size").value(Row.Size);
    W.key("method").value(Row.Method);
    W.key("reference_ns_per_instr").valueFixed(Row.ReferenceNsPerInstr, 1);
    W.key("optimized_ns_per_instr").valueFixed(Row.OptimizedNsPerInstr, 1);
    W.key("speedup").valueFixed(Row.speedup(), 2);
    W.endObject();
  }
  W.endArray();

  W.key("seed_comparison_512").beginArray();
  for (const SeedComparison &Row : Seed) {
    W.beginObject();
    W.key("method").value(Row.Method);
    W.key("seed_ns_per_instr").valueFixed(Row.SeedNsPerInstr, 1);
    W.key("current_ns_per_instr").valueFixed(Row.CurrentNsPerInstr, 1);
    W.key("speedup_vs_seed").valueFixed(Row.speedup(), 2);
    W.endObject();
  }
  W.endArray();

  W.key("pipeline_counters").beginObject();
  for (const char *Name :
       {"bsched.sched.weighter_blocks",
        "bsched.sched.weighter_scratch_reuses"})
    W.key(Name).value(counterOrZero(Counters, Name));
  W.endObject();

  W.key("parallel_compile").beginObject();
  W.key("blocks").value(Parallel.Blocks);
  W.key("workers").value(Parallel.Workers);
  W.key("serial_ms").valueFixed(Parallel.SerialMillis, 2);
  W.key("parallel_ms").valueFixed(Parallel.ParallelMillis, 2);
  W.endObject();

  W.endObject();
  writeBenchArtifact("perf_scaling", W);
}

} // namespace

BENCHMARK(BM_DagBuild)->RangeMultiplier(2)->Range(32, 512)->Complexity();
BENCHMARK(BM_TraditionalWeights)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Complexity();
BENCHMARK(BM_BalancedWeightsExact)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Complexity();
BENCHMARK(BM_BalancedWeightsUnionFind)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Complexity();
BENCHMARK(BM_BalancedWeightsExactReference)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Complexity();
BENCHMARK(BM_BalancedWeightsUnionFindReference)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Complexity();
BENCHMARK(BM_ListScheduler)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Complexity();

int main(int argc, char **argv) {
  // `--smoke`: one tiny iteration of every stage, no gbench sweep, no
  // artifact — fast enough for ctest (the perf-smoke label).
  bool Smoke = false;
  std::vector<char *> Args;
  for (int I = 0; I != argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else
      Args.push_back(argv[I]);
  }
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;

  if (!Smoke)
    benchmark::RunSpecifiedBenchmarks();

  std::vector<unsigned> Sizes =
      Smoke ? std::vector<unsigned>{32, 64}
            : std::vector<unsigned>{32, 64, 128, 256, 512};
  unsigned Iters = Smoke ? 1 : 20;
  std::vector<SweepRow> Sweep = runWeighterSweep(Sizes, Iters);
  std::vector<SeedComparison> Seed =
      Smoke ? std::vector<SeedComparison>{} : compareAgainstSeed();
  MetricSnapshot Counters = meteredPipelineRun();
  ParallelTiming Parallel = timeParallelCompile(Smoke ? 1 : 5);

  if (!Smoke)
    writeArtifact(Sweep, Seed, Counters, Parallel);
  benchmark::Shutdown();
  return 0;
}
