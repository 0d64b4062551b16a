//===- analysis/AllocationCertifier.h - Allocation certification -*- C++ -*-=//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translation validation for the local register allocator: given a block
/// before and after allocation, statically prove the rewrite preserved the
/// program. The proof is a symbolic re-execution of the allocated block
/// that tracks, for every physical register and spill slot, which virtual
/// value *generation* it currently holds, and checks each rewritten operand
/// reads exactly the generation the original program read. Obligations and
/// their stable BS codes:
///
///  - BS720 shape: the output is the input instruction sequence (opcode,
///    immediates, alias classes, latencies intact) with only spill code
///    inserted, and the reported spill counts match the inserted
///    instructions;
///  - BS721 value: every rewritten operand reads a register that provably
///    holds the right value generation (stale or clobbered values fail
///    here). The entry state is RegAllocResult::LiveInAssignment: each
///    live-in value starts in its recorded register, so a live-in read
///    from anywhere else fails here too;
///  - BS722 bound: no operand exceeds the target's register files
///    (general + spill pool), and the reserved frame pointer appears only
///    as the base of spill code;
///  - BS723 spill: spill stores save a tracked value and reloads read a
///    slot that was stored;
///  - BS724 missing: no input instruction was dropped.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_ANALYSIS_ALLOCATIONCERTIFIER_H
#define BSCHED_ANALYSIS_ALLOCATIONCERTIFIER_H

#include "regalloc/LocalRegAlloc.h"
#include "support/Diagnostic.h"

#include <vector>

namespace bsched {

class ResourceGovernor;

/// Certifies \p After as a valid allocation of \p Before (a snapshot of the
/// block before allocateRegisters ran); \p After may also have been
/// through renameRegisters, which keeps live-in names. \p SpillClass is
/// the interned "__spill" alias class; spill code is recognized as
/// loads/stores in that class based off \p Target's frame pointer. Returns
/// the (error-severity) violations found; empty = certificate granted.
/// When \p Governor is set it is polled once per output instruction; on a
/// trip the check returns early with whatever it found — callers must
/// check Governor->tripped() before treating an empty result as a
/// certificate.
std::vector<Diagnostic> certifyAllocation(const BasicBlock &Before,
                                          const BasicBlock &After,
                                          const RegAllocResult &Alloc,
                                          const TargetDescription &Target,
                                          AliasClassId SpillClass,
                                          ResourceGovernor *Governor = nullptr);

} // namespace bsched

#endif // BSCHED_ANALYSIS_ALLOCATIONCERTIFIER_H
