//===- perfbench/driver/Oracle.h - Output oracle ---------------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's correctness check, independent of the pipeline's own
/// certifiers: every compiled block and its input block run on the
/// reference interpreter (ir/Interpreter.h) and must leave the same memory
/// image, the allocator's spill slots excluded. Alias classes are matched
/// by name, so a compiled function parsed back from text (whose classes may
/// be numbered in another order) compares like an in-memory one.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DRIVER_ORACLE_H
#define PERFBENCH_DRIVER_ORACLE_H

#include "ir/Function.h"

#include <string>

namespace perfbench {

/// Empty when \p Compiled computes \p Input's memory image block by block;
/// otherwise what differs.
std::string checkMemoryImages(const bsched::Function &Input,
                              const bsched::Function &Compiled);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_ORACLE_H
