//===- tests/ReferenceSimulator.h - Test-only simulator oracle -*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The block simulator's timing loop in its direct form: one pass over
/// the instructions per run, register ready times in a hash map, and
/// every metric recorded through registry handles as it happens. It is
/// the oracle the decoded simulator (sim/Simulator) is fuzzed against in
/// SimTest: equal BlockSimResults and equal `bsched.sim.*` snapshots.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_TESTS_REFERENCESIMULATOR_H
#define BSCHED_TESTS_REFERENCESIMULATOR_H

#include "ir/BasicBlock.h"
#include "obs/Metrics.h"
#include "sched/LatencyModel.h"
#include "sim/MemorySystem.h"
#include "sim/Processor.h"
#include "sim/Simulator.h"

namespace bsched {

/// The reference's metric handles: the same seven names and bucket edges
/// as SimInstruments, recorded per run and per load.
struct ReferenceSimInstruments {
  explicit ReferenceSimInstruments(MetricRegistry &Reg)
      : BlockRuns(Reg.counter("bsched.sim.block_runs")),
        Cycles(Reg.counter("bsched.sim.cycles")),
        InterlockCycles(Reg.counter("bsched.sim.interlock_cycles")),
        Instructions(Reg.counter("bsched.sim.instructions")),
        Loads(Reg.counter("bsched.sim.loads")),
        LoadLatency(Reg.histogram(
            "bsched.sim.load_latency_cycles",
            {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128})),
        OutstandingLoads(Reg.histogram(
            "bsched.sim.outstanding_loads",
            {0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32})) {}

  Counter BlockRuns;
  Counter Cycles;
  Counter InterlockCycles;
  Counter Instructions;
  Counter Loads;
  Histogram LoadLatency;
  Histogram OutstandingLoads;
};

/// One execution of \p BB, exactly as simulateBlock computes it.
BlockSimResult referenceSimulateBlock(const BasicBlock &BB,
                                      const ProcessorModel &Processor,
                                      const MemorySystem &Memory, Rng &R,
                                      const LatencyModel &Ops = LatencyModel(),
                                      ReferenceSimInstruments *Obs = nullptr);

} // namespace bsched

#endif // BSCHED_TESTS_REFERENCESIMULATOR_H
