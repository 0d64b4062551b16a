//===- tests/TestEngineHelpers.h - Perfect Club engine cells ----*- C++ -*-==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers for the engine-level tests: the eight Perfect Club stand-ins as
/// one experiment-engine cell each.
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

} // namespace bsched::fixtures

#endif // BSCHED_TESTS_TESTENGINEHELPERS_H
