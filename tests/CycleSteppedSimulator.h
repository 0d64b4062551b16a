//===- tests/CycleSteppedSimulator.h - Cycle-by-cycle oracle ---*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A second, independent model of the block simulator's timing rules:
/// it advances one cycle per iteration, never skips ahead, and in each
/// cycle issues the next instructions in program order while all four
/// issue conditions hold: the sources are ready, an issue slot is free,
/// fewer than n loads are in flight when it is a load (MAX-n), and no
/// load has been in flight n cycles or more (LEN-n). It shares no code
/// and no algorithm with sim/Simulator or tests/ReferenceSimulator, so a
/// misreading of the rules that both of those share shows up as a
/// disagreement in SimTest. Its cost grows with the simulated cycles, so
/// it suits blocks with short latencies.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_TESTS_CYCLESTEPPEDSIMULATOR_H
#define BSCHED_TESTS_CYCLESTEPPEDSIMULATOR_H

#include "ir/BasicBlock.h"
#include "sched/LatencyModel.h"
#include "sim/Processor.h"
#include "sim/Simulator.h"

#include <span>

namespace bsched {

/// One execution of \p BB on \p Processor, the k-th load without a known
/// latency taking \p Latencies[k] cycles, and every other instruction
/// that writes a register max(llround(\p Ops latency), 1) cycles.
BlockSimResult
cycleSteppedSimulateBlock(const BasicBlock &BB,
                          const ProcessorModel &Processor,
                          std::span<const unsigned> Latencies,
                          const LatencyModel &Ops = LatencyModel());

} // namespace bsched

#endif // BSCHED_TESTS_CYCLESTEPPEDSIMULATOR_H
