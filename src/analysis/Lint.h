//===- analysis/Lint.h - IR lint analyses ----------------------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lint analyses built on the intra-block dataflow framework. Every
/// finding is a warning-severity \c Diagnostic with a stable BS code so
/// tools (the ir_lint CLI, tests, the fuzz harness) can assert on exact
/// findings:
///
///  - BS700 use-before-def: a register is read with no in-block
///    definition (a live-in). Legal IR, but in the self-contained kernels
///    this repository compiles it usually marks a missing initialization.
///  - BS701 dead value: a defined value is never read again in its block
///    (values are block-local by convention, so a dead definition is
///    removable work).
///  - BS702 redundant load: a load reads a memory location whose value is
///    already available — an earlier load of the same location, or the
///    register just stored to it — with no potentially-aliasing store in
///    between. Alias reasoning is the dependence analyzer's with
///    AliasAnalysis off (analysis/MemDep.h, AddressModel::Syntactic):
///    distinct alias classes never alias; same-class accesses through the
///    same base value at distinct offsets are disjoint.
///  - BS703 store-to-load forwarding: a load provably reads the word a
///    prior store wrote (no possibly-intervening clobber), but only the
///    folding address analysis can see it — the syntactic rule cannot, so
///    BS702 stays silent. Forwarding the stored register would remove the
///    load.
///  - BS704 dead store: a store is provably overwritten by a later
///    same-word store with no possibly-aliasing load in between. Memory
///    is live out of every block, so a store is only reported when the
///    overwrite happens inside the block.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_ANALYSIS_LINT_H
#define BSCHED_ANALYSIS_LINT_H

#include "ir/Function.h"
#include "support/Diagnostic.h"

#include <vector>

namespace bsched {

/// Which lint analyses run.
struct LintOptions {
  bool WarnUseBeforeDef = true;
  bool WarnDeadValue = true;
  bool WarnRedundantLoad = true;
  bool WarnStoreForward = true;
  bool WarnDeadStore = true;
};

/// Lints one block of \p F; findings reference \p F's alias-class names.
std::vector<Diagnostic> lintBlock(const Function &F, const BasicBlock &BB,
                                  const LintOptions &Options = {});

/// Lints every block of \p F.
std::vector<Diagnostic> lintFunction(const Function &F,
                                     const LintOptions &Options = {});

} // namespace bsched

#endif // BSCHED_ANALYSIS_LINT_H
