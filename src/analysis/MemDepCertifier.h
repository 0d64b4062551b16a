//===- analysis/MemDepCertifier.h - Memory-dependence audit ----*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Certifies that a built dependence DAG carries every memory-ordering
/// obligation of its block — in particular, that each DepKind::Memory edge
/// the builder *omitted* (dag/DagBuilder.cpp pruning) is justified by a
/// no-alias fact the certifier can re-derive independently.
///
/// The checker is O(n^2): it enumerates every ordered pair of same-class
/// memory instructions with at least one store (the full obligation set,
/// independent of how the builder maintains its live lists), requires a
/// DAG path between them (any edge kinds — register dependences count),
/// and, where there is none, audits the analysis's NoAlias claim two ways:
///
///  1. *Independent symbolic re-derivation*: a self-contained forward
///     substitution (deliberately separate code from
///     analysis/AddressAnalysis.h, keyed by def sites instead of value
///     numbers) must itself prove the addresses distinct mod 2^64. Only
///     arithmetic on known constants is shared: both evaluate it with the
///     interpreter's ALU (evalIntAlu, ir/Interpreter.h), which defines it.
///  2. *Interpreter-grade concrete cross-check*: the block prefix is
///     stepped on the reference Interpreter with its deterministic
///     live-in seeding, and the concrete addresses of a claimed-NoAlias
///     pair must differ (equality is a definite refutation).
///
/// The concrete run also audits every claimed MustAlias, path or not: the
/// facts come from one address model whose addresses are sampled before
/// each instruction's own def, so MustAlias means equal addresses in every
/// execution, and concretely different ones refute it.
///
/// Verdicts carry stable codes (see support/Diagnostic.h):
///   BS730  DAG shape does not mirror the block
///   BS731  required ordering with no DAG path and no verifiable proof
///   BS732  claimed NoAlias refuted (concretely equal addresses)
///   BS733  malformed memory edge (non-memory endpoint / wrong direction)
///   BS734  claimed MustAlias refuted (concretely different addresses)
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_ANALYSIS_MEMDEPCERTIFIER_H
#define BSCHED_ANALYSIS_MEMDEPCERTIFIER_H

#include "analysis/MemDep.h"
#include "dag/DagBuilder.h"
#include "support/Diagnostic.h"

#include <vector>

namespace bsched {

class ResourceGovernor;

/// The alias-fact source under audit. The production source is a
/// MemoryDependenceAnalysis over the builder's address model
/// (addressModel, dag/DagBuilder.h); certifyMemDepAgainst exists so tests
/// can inject corrupted facts and pin the exact BS codes.
class MemDepFacts {
public:
  virtual ~MemDepFacts() = default;

  /// Claimed relation between memory instructions \p I and \p J (I < J).
  virtual AliasResult alias(unsigned I, unsigned J) const = 0;
};

/// Certifies \p Dag against \p Input using the fact source the builder
/// would have used under \p Options. Returns the violations (empty =
/// certified). \p Gov, when set, is polled once per outer loop; on a trip
/// the (partial) result must be discarded by the caller.
std::vector<Diagnostic> certifyMemDep(const BasicBlock &Input,
                                      const DepDag &Dag,
                                      const DagBuildOptions &Options,
                                      ResourceGovernor *Gov = nullptr);

/// Test seam: certifies against an explicit fact source.
std::vector<Diagnostic> certifyMemDepAgainst(const BasicBlock &Input,
                                             const DepDag &Dag,
                                             const MemDepFacts &Facts,
                                             ResourceGovernor *Gov = nullptr);

} // namespace bsched

#endif // BSCHED_ANALYSIS_MEMDEPCERTIFIER_H
