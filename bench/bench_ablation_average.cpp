//===- bench/bench_ablation_average.cpp - Average-LLP ablation ------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// Reproduces the paper's section 3 negative result: assigning every load
// the block-*average* load-level parallelism "produced schedules that
// executed no faster than schedules from the traditional scheduler". We
// compare traditional, average-LLP and per-load balanced on the Perfect
// Club stand-ins over the high-uncertainty systems.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <cstdio>

using namespace bsched;
using namespace bsched::bench;

int main() {
  std::printf("Ablation: per-load balanced weights vs. the block-average "
              "alternative\n(percent improvement over the traditional "
              "scheduler; section 3's rejected variant)\n\n");

  struct SystemSpec {
    NetworkSystem Memory;
    double OptLat;
  };
  SystemSpec Systems[] = {{NetworkSystem(2, 5), 2},
                          {NetworkSystem(3, 5), 3},
                          {NetworkSystem(2, 2), 2}};
  SimulationConfig Sim = paperSimulation();

  // Two cells per (system, benchmark) — balanced and average-LLP — that
  // share their traditional baseline compile through the engine cache.
  std::vector<std::pair<Benchmark, Function>> Programs = paperPrograms();
  std::vector<ExperimentCell> Matrix;
  for (SystemSpec &S : Systems)
    for (const auto &[B, F] : Programs)
      for (SchedulerPolicy Candidate :
           {SchedulerPolicy::Balanced, SchedulerPolicy::AverageLlp})
        Matrix.push_back({benchmarkName(B) + "/" + policyName(Candidate),
                          &F, &S.Memory, S.OptLat, Candidate,
                          PipelineConfig::paperDefault(), Sim});
  EngineResult Run = runEngineMatrix(Matrix);

  size_t Next = 0;
  for (SystemSpec &S : Systems) {
    Table T("System " + S.Memory.name());
    T.setHeader({"Program", "Bal Imp%", "Avg Imp%", "Bal spill%",
                 "Avg spill%"});
    double BalSum = 0, AvgSum = 0;
    for (const auto &[B, F] : Programs) {
      (void)F;
      const CellOutcome &BalOut = Run.Cells[Next++];
      const CellOutcome &AvgOut = Run.Cells[Next++];
      if (!BalOut.ok() || !AvgOut.ok()) {
        const CellOutcome &Bad = BalOut.ok() ? AvgOut : BalOut;
        T.addRow({benchmarkName(B), "n/a (" + Bad.firstError() + ")", "n/a",
                  "n/a", "n/a"});
        BalSum = AvgSum = NAN; // The means lack this row.
        continue;
      }
      const SchedulerComparison &Bal = *BalOut.Comparison;
      const SchedulerComparison &Avg = *AvgOut.Comparison;
      T.addRow({benchmarkName(B),
                formatPercent(Bal.Improvement.MeanPercent),
                formatPercent(Avg.Improvement.MeanPercent),
                formatPercent(Bal.CandidateCompiled.spillPercent()),
                formatPercent(Avg.CandidateCompiled.spillPercent())});
      BalSum += Bal.Improvement.MeanPercent;
      AvgSum += Avg.Improvement.MeanPercent;
    }
    T.addSeparator();
    T.addRow({"Mean", formatMean(BalSum / 8), formatMean(AvgSum / 8)});
    T.print(stdout);
    std::printf("\n");
  }
  std::printf(
      "Paper's claim: the average-LLP variant ignores within-block "
      "imbalance and\ngained nothing over traditional on the Perfect "
      "Club. MEASURED DIVERGENCE:\non our synthetic stand-ins averaging "
      "often matches or beats per-load\nweights, because our blocks are "
      "internally homogeneous and averaging\nflattens the large weights "
      "of late-in-block loads, trimming register\npressure (compare the "
      "spill%% columns). Where blocks are heterogeneous\n(MDG, TRACK) "
      "per-load weights keep their edge, which is the paper's\n"
      "mechanism. See EXPERIMENTS.md.\n");
  return 0;
}
