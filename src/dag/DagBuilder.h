//===- dag/DagBuilder.h - Dependence analysis ------------------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the code DAG for a basic block: register RAW/WAR/WAW dependences
/// plus memory-ordering dependences within alias classes.
///
/// Memory disambiguation mirrors the paper's section 4.2 setup:
///  - Operations in *different* alias classes never alias (the Fortran
///    dummy-argument independence the paper's source transformation
///    recovers). Putting all arrays in one class reproduces the
///    conservative f2c/C behaviour.
///  - Within a class, one address analysis (analysis/AddressAnalysis.h)
///    answers every query, at the precision addressModel() picks. With
///    AliasAnalysis on (the default) it folds: same-origin accesses at
///    different constant offsets — and distinct constant addresses — are
///    disjoint, tracking values through Move/AddI rewrites and LoadImm
///    constants. With it off, folding is off too, which leaves the
///    paper's syntactic rule: the *same base register value* at different
///    constant offsets. Without DisambiguateSameBase nothing is tracked
///    and every store is a barrier.
///
/// Addresses are sampled before the accessing instruction's own def, so a
/// load that redefines its base is compared at the address it reads.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_DAG_DAGBUILDER_H
#define BSCHED_DAG_DAGBUILDER_H

#include "analysis/MemDep.h"
#include "dag/DepDag.h"

namespace bsched {

class ResourceGovernor;

/// Alias-query counters filled by one buildDag call (wired into obs as
/// `bsched.alias.*` / `bsched.dag.mem_edges_pruned` by the pipeline).
/// A query is one ordered comparison of a candidate access against a live
/// prior access of its class; EdgesPruned counts the queries whose NoAlias
/// answer suppressed a would-be DepKind::Memory edge.
struct DagAliasStats {
  uint64_t Queries = 0;
  uint64_t NoAlias = 0;
  uint64_t MustAlias = 0;
  uint64_t MayAlias = 0;
  uint64_t EdgesPruned = 0;
};

/// Options controlling dependence precision.
struct DagBuildOptions {
  /// If true, same-class accesses with the same base register value but
  /// different constant offsets are treated as independent. Only
  /// consulted when AliasAnalysis is off (the symbolic analysis subsumes
  /// the syntactic rule).
  bool DisambiguateSameBase = true;

  /// If true (the default), memory edges are pruned with the symbolic
  /// address analysis (analysis/MemDep.h): accesses whose addresses are
  /// provably distinct words mod 2^64 need no ordering edge. Every
  /// omission is independently audited by the memory-dependence certifier
  /// when the pipeline certifies (analysis/MemDepCertifier.h).
  bool AliasAnalysis = true;

  /// Optional resource governor polled once per instruction and consulted
  /// for the dag-edge admission budget. When it trips, buildDag stops
  /// adding edges and returns early; callers must check
  /// Governor->tripped() before using the (partial) DAG.
  ResourceGovernor *Governor = nullptr;

  /// Optional out-param: alias-query counters for this build.
  DagAliasStats *AliasStats = nullptr;
};

/// The address model \p Options select: AliasAnalysis on folds
/// (Symbolic); off, DisambiguateSameBase keeps the same-base rule
/// (Syntactic) and its absence tracks nothing (Untracked). The builder and
/// certifyMemDep (analysis/MemDepCertifier.h) both call this.
AddressModel addressModel(const DagBuildOptions &Options);

/// Builds the dependence DAG for \p BB (excluding a trailing terminator).
/// The returned DAG is frozen (CSR edge storage; DepDag::freeze).
DepDag buildDag(const BasicBlock &BB, const DagBuildOptions &Options = {});

/// Arena-reuse form: rebuilds \p Dag in place over \p BB, recycling its
/// allocations (DepDag::rebuild). Semantically identical to assigning the
/// result of buildDag. The DAG is frozen on return.
void buildDagInto(DepDag &Dag, const BasicBlock &BB,
                  const DagBuildOptions &Options = {});

} // namespace bsched

#endif // BSCHED_DAG_DAGBUILDER_H
