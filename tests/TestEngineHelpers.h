//===- tests/TestEngineHelpers.h - Perfect Club engine cells ----*- C++ -*-==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers for the engine-level tests: the eight Perfect Club stand-ins as
/// one experiment-engine cell each, and what each cell gives on its own.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_TESTS_TESTENGINEHELPERS_H
#define BSCHED_TESTS_TESTENGINEHELPERS_H

#include "pipeline/ExperimentEngine.h"
#include "workload/PerfectClub.h"

#include <vector>

namespace bsched::fixtures {

/// The eight Perfect Club stand-ins, in allBenchmarks() order. Cells
/// borrow these, so they must outlive every engine run over them.
inline std::vector<Function>
perfectClubPrograms(const WorkloadOptions &Options) {
  std::vector<Function> Programs;
  for (Benchmark B : allBenchmarks())
    Programs.push_back(buildBenchmark(B, Options));
  return Programs;
}

/// One balanced-vs-traditional cell per program of perfectClubPrograms,
/// labelled with its benchmark name, all against \p Memory under \p Sim
/// and the shared pipeline config \p Base.
inline std::vector<ExperimentCell>
perfectClubCells(const std::vector<Function> &Programs,
                 const MemorySystem &Memory, const SimulationConfig &Sim,
                 const PipelineConfig &Base = {}) {
  const std::vector<Benchmark> Benchmarks = allBenchmarks();
  std::vector<ExperimentCell> Cells;
  for (size_t I = 0; I != Programs.size(); ++I)
    Cells.push_back({benchmarkName(Benchmarks[I]), &Programs[I], &Memory,
                     2.0, SchedulerPolicy::Balanced, Base, Sim});
  return Cells;
}

/// What each of \p Cells gives on its own: one runComparison per cell,
/// with no engine, compile cache or shared draws, as an EngineResult for
/// identicalEngineResults. An engine run must equal it whenever every
/// cell's pipeline config validates (the engine reports a bad one before
/// compiling, so its diagnostics differ).
inline EngineResult
standaloneResults(const std::vector<ExperimentCell> &Cells) {
  EngineResult Result;
  for (const ExperimentCell &Cell : Cells) {
    CellOutcome Outcome;
    Outcome.Label = Cell.Label;
    ErrorOr<SchedulerComparison> Comparison =
        runComparison(*Cell.Program, *Cell.Memory, Cell.OptimisticLatency,
                      Cell.Sim, Cell.Candidate, Cell.Base);
    if (Comparison)
      Outcome.Comparison = std::move(*Comparison);
    else
      Outcome.Errors = Comparison.takeErrors();
    Result.Cells.push_back(std::move(Outcome));
  }
  return Result;
}

} // namespace bsched::fixtures

#endif // BSCHED_TESTS_TESTENGINEHELPERS_H
