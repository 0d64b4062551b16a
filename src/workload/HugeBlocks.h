//===- workload/HugeBlocks.h - Huge-DAG workload family --------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The huge-block family: deterministic single-block functions of exactly
/// n schedulable instructions for n far beyond the paper's working set
/// (their blocks top out in the hundreds). These are the inputs of the
/// huge-DAG scaling work (DESIGN.md §3m): the n=4096 differential oracle,
/// the n=2048 golden-output test, bench_huge_dag, and the perf-smoke gate
/// all draw from here, so the generator is part of the workload library
/// rather than private to one bench binary.
///
/// Each block mixes the shapes that matter at scale: parallel load pairs
/// feeding multiply/accumulate trees (abundant load-level parallelism),
/// short serial reload chains, and periodic stores — spread over several
/// named arrays so alias classes partition the memory edges (with
/// FortranAliasing; one conservative class without). Offsets within an
/// array are distinct constants, so the symbolic alias analysis prunes
/// the quadratic would-be store edges the way real unrolled code allows.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_WORKLOAD_HUGEBLOCKS_H
#define BSCHED_WORKLOAD_HUGEBLOCKS_H

#include "workload/PerfectClub.h"

namespace bsched {

/// The family's standard sizes: {2048, 4096, 8192, 16384}.
std::vector<unsigned> hugeBlockSizes();

/// Builds "huge<Size>": one block of exactly \p Size schedulable
/// instructions (frequency 1). Deterministic: equal (Size, Options)
/// produce identical functions. \p Size must be at least 64.
Function buildHugeBlock(unsigned Size, const WorkloadOptions &Options = {});

/// Builds "huge<Size>x<NumBlocks>": \p NumBlocks blocks of exactly
/// \p Size schedulable instructions each, every block drawing a distinct
/// pattern stream. The multi-block shape is what the block-parallel
/// weighting scaling study compiles (one worker per block). Deterministic
/// like buildHugeBlock; block 0 of buildHugeFunction(1, n) is identical in
/// shape to buildHugeBlock(n).
Function buildHugeFunction(unsigned NumBlocks, unsigned Size,
                           const WorkloadOptions &Options = {});

} // namespace bsched

#endif // BSCHED_WORKLOAD_HUGEBLOCKS_H
