//===- bench/bench_ablation_aliasing.cpp - Aliasing-transform ablation ----==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// Reproduces the effect of the paper's section 4.2 parallelism-exposing
// transformation: under the conservative f2c/C translation every array
// shares one alias class and loads cannot move above stores, crushing the
// load-level parallelism that balanced scheduling feeds on. We compile
// the workload both ways and compare improvements and measured LLP.
//
// Both columns use the syntactic same-base disambiguation the paper's GCC
// had (DagBuildOptions::AliasAnalysis off): the default symbolic address
// analysis proves the conservative translation's same-class accesses
// disjoint too, which would close the gap this ablation measures.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "dag/DagBuilder.h"
#include "dag/DagUtils.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <cstdio>

using namespace bsched;
using namespace bsched::bench;

namespace {

/// Mean loads-per-serial-step over a function's blocks (a crude LLP
/// proxy): number of loads divided by the longest load path.
double meanLoadParallelism(const Function &F,
                           const DagBuildOptions &Options) {
  double Sum = 0.0;
  unsigned Blocks = 0;
  for (const BasicBlock &BB : F) {
    DepDag Dag = buildDag(BB, Options);
    std::vector<unsigned> All(Dag.size());
    for (unsigned I = 0; I != Dag.size(); ++I)
      All[I] = I;
    unsigned Loads = static_cast<unsigned>(Dag.loadNodes().size());
    if (Loads == 0)
      continue;
    Sum += static_cast<double>(Loads) /
           std::max(1u, longestLoadPath(Dag, All));
    ++Blocks;
  }
  return Blocks == 0 ? 0.0 : Sum / Blocks;
}

} // namespace

int main() {
  std::printf("Ablation: Fortran aliasing rules vs. the conservative "
              "f2c/C translation\n(section 4.2's parallelism-exposing "
              "transformation)\n\n");

  NetworkSystem Memory(3, 5);
  SimulationConfig Sim = paperSimulation();
  PipelineConfig Config = PipelineConfig::paperDefault();
  Config.DagOptions.AliasAnalysis = false;

  // Two programs per benchmark (Fortran vs. conservative aliasing), each
  // its own engine cell; the programs must outlive the engine run.
  WorkloadOptions Fortran, Conservative;
  Fortran.FortranAliasing = true;
  Conservative.FortranAliasing = false;
  std::vector<std::pair<Function, Function>> Programs;
  for (Benchmark B : allBenchmarks())
    Programs.emplace_back(buildBenchmark(B, Fortran),
                          buildBenchmark(B, Conservative));

  std::vector<ExperimentCell> Matrix;
  for (size_t I = 0; I != Programs.size(); ++I) {
    std::string Name = benchmarkName(allBenchmarks()[I]);
    Matrix.push_back({Name + "/fortran", &Programs[I].first, &Memory, 3,
                      SchedulerPolicy::Balanced, Config, Sim});
    Matrix.push_back({Name + "/c", &Programs[I].second, &Memory, 3,
                      SchedulerPolicy::Balanced, Config, Sim});
  }
  EngineResult Run = runEngineMatrix(Matrix);

  Table T;
  T.setHeader({"Program", "LLP fortran", "LLP c", "Imp% fortran",
               "Imp% c"});
  double SumF = 0, SumC = 0;
  size_t Next = 0;
  for (size_t I = 0; I != Programs.size(); ++I) {
    const Function &FF = Programs[I].first;
    const Function &FC = Programs[I].second;
    const CellOutcome &OutF = Run.Cells[Next++];
    const CellOutcome &OutC = Run.Cells[Next++];
    if (!OutF.ok() || !OutC.ok()) {
      const CellOutcome &Bad = OutF.ok() ? OutC : OutF;
      T.addRow({benchmarkName(allBenchmarks()[I]),
                "n/a (" + Bad.firstError() + ")", "n/a", "n/a", "n/a"});
      continue;
    }
    T.addRow({benchmarkName(allBenchmarks()[I]),
              formatDouble(meanLoadParallelism(FF, Config.DagOptions), 2),
              formatDouble(meanLoadParallelism(FC, Config.DagOptions), 2),
              formatPercent(OutF.Comparison->Improvement.MeanPercent),
              formatPercent(OutC.Comparison->Improvement.MeanPercent)});
    SumF += OutF.Comparison->Improvement.MeanPercent;
    SumC += OutC.Comparison->Improvement.MeanPercent;
  }
  T.addSeparator();
  T.addRow({"Mean", "", "", formatPercent(SumF / 8),
            formatPercent(SumC / 8)});
  T.print(stdout);

  std::printf("\nPaper's claim: without the transformation, false "
              "store->load dependences\nfrom the Fortran-to-C translation "
              "severely restrict the scheduler's\nability to exploit load "
              "level parallelism.\n");
  return 0;
}
