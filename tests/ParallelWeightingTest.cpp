//===- tests/ParallelWeightingTest.cpp - Serial == parallel weighting -----=//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The block-parallel compile contract (DESIGN.md §3h): a pipeline run
/// with Config.WeighterPool set compiles whole blocks on the pool's workers
/// and produces a compiled function *bit-identical* to the serial run —
/// same instruction text, same statistics, same metrics — because every
/// block runs the same per-block chain and the results are folded back in
/// block order. The suite runs under the TSan preset, so it also exercises
/// the sharing discipline (immutable weighter and function-level state
/// shared across workers, one scratch and DAG arena per thread) under the
/// race detector.
///
//===----------------------------------------------------------------------===//

#include "ir/IrPrinter.h"
#include "obs/Metrics.h"
#include "pipeline/Pipeline.h"
#include "sched/BalancedWeighter.h"
#include "sched/WeighterScratch.h"
#include "support/ThreadPool.h"
#include "workload/HugeBlocks.h"
#include "workload/PerfectClub.h"

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

using namespace bsched;

namespace {

/// A multi-block workload with real spill pressure (MDG is the paper's
/// highest-LLP program; unroll 2 keeps the test fast but multi-block).
Function testFunction(Benchmark B = Benchmark::MDG) {
  WorkloadOptions Options;
  Options.UnrollFactor = 2;
  return buildBenchmark(B, Options);
}

void expectIdenticalCompiles(const CompiledFunction &Serial,
                             const CompiledFunction &Parallel) {
  EXPECT_EQ(printFunction(Serial.Compiled), printFunction(Parallel.Compiled));
  EXPECT_EQ(Serial.SpillPerBlock, Parallel.SpillPerBlock);
  EXPECT_EQ(Serial.StaticInstructions, Parallel.StaticInstructions);
  EXPECT_EQ(Serial.StaticSpills, Parallel.StaticSpills);
  EXPECT_EQ(std::bit_cast<uint64_t>(Serial.DynamicInstructions),
            std::bit_cast<uint64_t>(Parallel.DynamicInstructions));
  EXPECT_EQ(std::bit_cast<uint64_t>(Serial.DynamicSpills),
            std::bit_cast<uint64_t>(Parallel.DynamicSpills));
}

} // namespace

TEST(ParallelWeightingTest, PipelineMatchesSerialAcrossPolicies) {
  ThreadPool Pool(4);
  for (Benchmark B : {Benchmark::MDG, Benchmark::TRACK}) {
    Function F = testFunction(B);
    ASSERT_GT(F.numBlocks(), 1u);
    for (SchedulerPolicy Policy :
         {SchedulerPolicy::Balanced, SchedulerPolicy::BalancedUnionFind,
          SchedulerPolicy::Traditional}) {
      PipelineConfig Serial;
      Serial.Policy = Policy;
      PipelineConfig Parallel = Serial;
      Parallel.WeighterPool = &Pool;

      ErrorOr<CompiledFunction> SerialOr = runPipeline(F, Serial);
      ErrorOr<CompiledFunction> ParallelOr = runPipeline(F, Parallel);
      ASSERT_TRUE(SerialOr.has_value());
      ASSERT_TRUE(ParallelOr.has_value());
      expectIdenticalCompiles(*SerialOr, *ParallelOr);
    }
  }
}

TEST(ParallelWeightingTest, PipelineMatchesSerialWithoutRegAlloc) {
  ThreadPool Pool(4);
  Function F = testFunction();
  PipelineConfig Serial = PipelineConfig::unlimitedRegisters();
  PipelineConfig Parallel = Serial;
  Parallel.WeighterPool = &Pool;

  ErrorOr<CompiledFunction> SerialOr = runPipeline(F, Serial);
  ErrorOr<CompiledFunction> ParallelOr = runPipeline(F, Parallel);
  ASSERT_TRUE(SerialOr.has_value());
  ASSERT_TRUE(ParallelOr.has_value());
  expectIdenticalCompiles(*SerialOr, *ParallelOr);
}

TEST(ParallelWeightingTest, OneWorkerPoolStaysSerialPath) {
  // A one-worker pool must behave exactly like no pool: the pipeline takes
  // the serial loop (workerCount() > 1 gate) and never enters the pool.
  ThreadPool Pool(1);
  Function F = testFunction();
  PipelineConfig Config;
  Config.WeighterPool = &Pool;
  PipelineConfig NoPool;

  ErrorOr<CompiledFunction> WithPool = runPipeline(F, Config);
  ErrorOr<CompiledFunction> Without = runPipeline(F, NoPool);
  ASSERT_TRUE(WithPool.has_value());
  ASSERT_TRUE(Without.has_value());
  expectIdenticalCompiles(*WithPool, *Without);
}

TEST(ParallelWeightingTest, SharedWeighterConcurrentScratchesAgree) {
  // Weighter-level contract: one immutable BalancedWeighter shared by many
  // workers, each with its own scratch, weighting disjoint DAGs of the
  // same function concurrently — every result matches the serial pass.
  Function F = testFunction();
  unsigned NumBlocks = F.numBlocks();
  BalancedWeighter W;

  std::vector<std::vector<double>> SerialWeights(NumBlocks);
  {
    WeighterScratch Scratch;
    for (unsigned BI = 0; BI != NumBlocks; ++BI) {
      DepDag Dag = buildDag(F.block(BI), DagBuildOptions());
      W.assignWeights(Dag, Scratch);
      for (unsigned I = 0; I != Dag.size(); ++I)
        SerialWeights[BI].push_back(Dag.weight(I));
    }
  }

  std::vector<std::vector<double>> ParallelWeights(NumBlocks);
  ThreadPool Pool(4);
  parallelForEach(Pool, NumBlocks, [&](size_t BI) {
    thread_local WeighterScratch Scratch;
    DepDag Dag =
        buildDag(F.block(static_cast<unsigned>(BI)), DagBuildOptions());
    W.assignWeights(Dag, Scratch);
    for (unsigned I = 0; I != Dag.size(); ++I)
      ParallelWeights[BI].push_back(Dag.weight(I));
  });

  for (unsigned BI = 0; BI != NumBlocks; ++BI) {
    ASSERT_EQ(SerialWeights[BI].size(), ParallelWeights[BI].size());
    for (unsigned I = 0; I != SerialWeights[BI].size(); ++I)
      EXPECT_EQ(std::bit_cast<uint64_t>(SerialWeights[BI][I]),
                std::bit_cast<uint64_t>(ParallelWeights[BI][I]))
          << "block " << BI << " node " << I;
  }
}

TEST(ParallelWeightingTest, PooledRunRecordsSerialMetrics) {
  // Each block runs its whole chain once, whichever worker compiles it, so
  // a pooled compile records the serial compile's metrics. The exception
  // is scratch reuse, which depends on how many blocks each worker served.
  Function F = testFunction();
  ThreadPool Pool(4);
  auto Snapshot = [&](ThreadPool *Blocks) {
    MetricRegistry Registry;
    PipelineConfig Config;
    Config.WeighterPool = Blocks;
    Config.Obs.Metrics = &Registry;
    EXPECT_TRUE(runPipeline(F, Config).has_value());
    MetricSnapshot Snap = Registry.snapshot();
    Snap.Counters.erase("bsched.sched.weighter_scratch_reuses");
    return Snap;
  };
  MetricSnapshot Serial = Snapshot(nullptr);
  MetricSnapshot Pooled = Snapshot(&Pool);
  EXPECT_EQ(Serial.toJson(), Pooled.toJson());
#ifndef BSCHED_NO_OBS
  // Every block is weighted twice: before and after allocation.
  EXPECT_EQ(Pooled.Counters["bsched.sched.weighter_blocks"],
            2u * F.numBlocks());
#endif
}

TEST(ParallelWeightingTest, HugeFunctionMatchesSerial) {
  // Four blocks of 1024 instructions with allocation and certification on:
  // both scheduling passes, allocation and every certificate run
  // concurrently on the pool's workers.
  Function F = buildHugeFunction(4, 1024);
  PipelineConfig Serial = PipelineConfig::paperDefault();
  ASSERT_TRUE(Serial.RunRegAlloc && Serial.Certify);
  ThreadPool Pool(4);
  PipelineConfig Pooled = Serial;
  Pooled.WeighterPool = &Pool;

  ErrorOr<CompiledFunction> SerialOr = runPipeline(F, Serial);
  ErrorOr<CompiledFunction> PooledOr = runPipeline(F, Pooled);
  ASSERT_TRUE(SerialOr.has_value()) << SerialOr.errorText();
  ASSERT_TRUE(PooledOr.has_value()) << PooledOr.errorText();
  expectIdenticalCompiles(*SerialOr, *PooledOr);
  EXPECT_EQ(SerialOr->Compiled.numAliasClasses(),
            PooledOr->Compiled.numAliasClasses());
}
