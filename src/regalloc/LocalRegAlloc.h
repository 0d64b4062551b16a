//===- regalloc/LocalRegAlloc.h - Local register allocation ----*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A local (per-basic-block) register allocator with on-demand spilling:
/// live-ins are assigned physical registers at block entry and other
/// values at their definition, and when the file is full the resident
/// value with the farthest next use is evicted (Belady's rule), storing it
/// to a spill slot if it is dirty. Reloads draw their destination from the
/// dedicated spill-register pool, rotated FIFO per the paper's section 4.1
/// improvement.
///
/// The allocator exists because the paper's Tables 3-5 hinge on spill-code
/// differences between the two schedulers: schedules with long producer/
/// consumer distances keep more values live, overflow the register file,
/// and pay for it in spill instructions. Allocation runs between the two
/// scheduling passes exactly as in the paper's GCC pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_REGALLOC_LOCALREGALLOC_H
#define BSCHED_REGALLOC_LOCALREGALLOC_H

#include "ir/Function.h"
#include "regalloc/TargetRegisters.h"

#include <unordered_map>
#include <vector>

namespace bsched {

class ResourceGovernor;

/// Outcome of allocating one block.
struct RegAllocResult {
  /// Spill stores inserted (register -> memory).
  unsigned SpillStores = 0;

  /// Spill reloads inserted (memory -> register).
  unsigned SpillLoads = 0;

  /// The general register holding each live-in virtual register at block
  /// entry, each live-in in its own (used by tests to seed the
  /// interpreter, by the allocation certificate as its entry state, and by
  /// callers that model calling conventions).
  std::unordered_map<uint32_t, Reg> LiveInAssignment;

  /// Total spill instructions inserted.
  unsigned spillInstructions() const { return SpillStores + SpillLoads; }
};

/// Name of the alias class the allocator's spill slots live in; disjoint
/// from every program alias class.
constexpr const char *SpillAliasClassName = "__spill";

/// The registers \p BB reads before defining (its live-ins), in
/// first-read order.
std::vector<Reg> blockLiveIns(const BasicBlock &BB);

/// Rewrites \p BB in place from virtual to physical registers, inserting
/// spill code as needed. \p F provides the alias-class table (a "__spill"
/// class is interned) — \p BB must belong to \p F. All values are treated
/// as dead at block end (the pipeline's workloads store live results to
/// memory explicitly). Live-ins are bound to general registers at block
/// entry, so a class's live-ins must not outnumber its general registers
/// (runPipeline refuses such blocks with BS501).
///
/// When \p Governor is set it is polled once per instruction and consulted
/// for the spill-slot admission budget; on a trip the allocator bails
/// *before* rewriting \p BB (the block is left untouched) and returns the
/// partial result. Callers must check Governor->tripped().
RegAllocResult allocateRegisters(Function &F, BasicBlock &BB,
                                 const TargetDescription &Target = {},
                                 ResourceGovernor *Governor = nullptr);

} // namespace bsched

#endif // BSCHED_REGALLOC_LOCALREGALLOC_H
