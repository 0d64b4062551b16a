//===- bench/bench_table2_unlimited.cpp - Table 2 reproduction ------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// Reproduces Table 2: percent improvement in execution time of balanced
// over traditional scheduling on the UNLIMITED processor model, for every
// benchmark and system configuration, with the traditional scheduler
// evaluated at both the optimistic (hit-time) and effective-access-time
// latencies. Exits 1, naming the failing pair, unless the paper's shape
// claims hold on the row means (the `table2_shape` ctest).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <cstdio>
#include <map>

using namespace bsched;
using namespace bsched::bench;

int main() {
  std::printf("Table 2: percent improvement from balanced scheduling, "
              "processor model UNLIMITED\n"
              "(positive = balanced faster; paper averages 3%%-18%% per "
              "system row, mean 9.9%%)\n\n");

  SimulationConfig Sim = paperSimulation(ProcessorModel::unlimited());

  // One engine cell per (system row, optimistic latency, benchmark). The
  // balanced compilation of each benchmark is identical across every
  // system row, so the engine's compile cache collapses those repeats.
  std::vector<std::pair<Benchmark, Function>> Programs = paperPrograms();
  std::vector<SystemRow> Systems = paperSystems();
  std::vector<ExperimentCell> Matrix;
  for (const SystemRow &Row : Systems)
    for (double OptLat : Row.OptimisticLatencies)
      for (const auto &[B, F] : Programs)
        Matrix.push_back({Row.Memory->name() + "/" + benchmarkName(B), &F,
                          Row.Memory.get(), OptLat,
                          SchedulerPolicy::Balanced,
                          PipelineConfig::paperDefault(), Sim});
  MetricRegistry Metrics;
  EngineResult Run = runEngineMatrix(Matrix, ObsContext{&Metrics, nullptr, {}});

  Table T;
  std::vector<std::string> Header = {"System", "OptLat"};
  for (Benchmark B : allBenchmarks())
    Header.push_back(benchmarkName(B));
  Header.push_back("Mean");
  T.setHeader(std::move(Header));

  const char *LastGroup = nullptr;
  double GrandSum = 0.0;
  unsigned GrandCount = 0;
  unsigned FailedCells = 0;
  // Row means by system name, in OptimisticLatencies order: [0] is the
  // hit-time row, [1] the effective-latency row where there is one.
  std::map<std::string, std::vector<double>> RowMeans;
  size_t Next = 0;
  for (const SystemRow &Row : Systems) {
    if (LastGroup != Row.Group) {
      if (LastGroup)
        T.addSeparator();
      T.addRow({Row.Group});
      LastGroup = Row.Group;
    }
    for (double OptLat : Row.OptimisticLatencies) {
      std::vector<std::string> Cells = {Row.Memory->name(),
                                        formatDouble(OptLat, 2)};
      double Sum = 0.0;
      for (const auto &Program : Programs) {
        (void)Program;
        const CellOutcome &Out = Run.Cells[Next++];
        if (!Out.ok()) {
          Cells.push_back("n/a (" + Out.firstError() + ")");
          ++FailedCells;
          continue;
        }
        Cells.push_back(formatPercent(Out.Comparison->Improvement.MeanPercent));
        Sum += Out.Comparison->Improvement.MeanPercent;
      }
      double Mean = Sum / static_cast<double>(allBenchmarks().size());
      Cells.push_back(formatPercent(Mean));
      T.addRow(std::move(Cells));
      RowMeans[Row.Memory->name()].push_back(Mean);
      GrandSum += Mean;
      ++GrandCount;
    }
  }
  T.print(stdout);
  std::printf("\nGrand mean over all system rows: %s%%\n",
              formatPercent(GrandSum / GrandCount).c_str());

  // Machine-readable artifact: run shape, wall time, simulated cycles
  // (from the engine's metric registry), grand mean.
  JsonWriter W;
  W.beginObject();
  W.key("name").value("table2_unlimited");
  W.key("config").beginObject();
  W.key("processor").value("unlimited");
  W.key("benchmarks").value(Programs.size());
  W.key("system_rows").value(Systems.size());
  W.key("cells").value(Matrix.size());
  W.key("runs_per_block").value(Sim.NumRuns);
  W.endObject();
  W.key("wall_ms").valueFixed(Run.Counters.WallMillis, 3);
  W.key("cache_hits").value(Run.Counters.CacheHits);
  W.key("cache_misses").value(Run.Counters.CacheMisses);
  W.key("cycles").value(
      counterOrZero(Metrics.snapshot(), "bsched.sim.cycles"));
  W.key("grand_mean_percent").valueFixed(GrandSum / GrandCount, 3);
  W.endObject();
  writeBenchArtifact("table2_unlimited", W);

  // The paper's shape claims, on the printed row means.
  std::printf("\nShape checks against the paper (row means):\n");
  bool AllHold = FailedCells == 0;
  if (FailedCells != 0)
    std::printf("  FAIL %u cells failed; the row means are incomplete\n",
                FailedCells);
  auto Expect = [&](const char *Claim, const std::string &Larger,
                    const std::string &Smaller, size_t Row) {
    double A = RowMeans.at(Larger).at(Row);
    double B = RowMeans.at(Smaller).at(Row);
    bool Holds = A > B;
    AllHold &= Holds;
    std::printf("  %s %-13s %s: %s %s > %s %s\n", Holds ? "ok  " : "FAIL",
                Claim, Row == 0 ? "hit-time " : "effective", Larger.c_str(),
                formatPercent(A).c_str(), Smaller.c_str(),
                formatPercent(B).c_str());
  };
  for (size_t Row : {0, 1}) {
    Expect("miss penalty", "L80(2,10)", "L80(2,5)", Row);
    Expect("miss penalty", "L95(2,10)", "L95(2,5)", Row);
    Expect("miss rate", "L80(2,5)", "L95(2,5)", Row);
    Expect("miss rate", "L80(2,10)", "L95(2,10)", Row);
  }
  for (const char *Mu : {"2", "3", "5"})
    Expect("sigma", std::string("N(") + Mu + ",5)",
           std::string("N(") + Mu + ",2)", 0);
  std::printf("  (N(30,5) is the stress case, latency >> LLP: balanced can "
              "lose; see\n  EXPERIMENTS.md for the divergence "
              "discussion.)\n");
  if (!AllHold) {
    std::printf("Table 2 shape check FAILED\n");
    return 1;
  }
  return 0;
}
