//===- analysis/MemDep.h - Memory-dependence analysis ----------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classifies pairs of memory instructions in one basic block as
/// MustAlias / NoAlias / MayAlias, with a constant distance where one is
/// derivable. Built on the symbolic address analysis
/// (analysis/AddressAnalysis.h); the lattice is:
///
///   - different alias classes            -> NoAlias (the paper's section
///     4.2 Fortran dummy-argument rule)
///   - same symbolic address              -> MustAlias
///   - same origin, different offsets     -> NoAlias (addresses differ by a
///     nonzero constant mod 2^64)
///   - otherwise                          -> MayAlias
///
/// The AddressModel picks how origins are formed, so the paper's section
/// 4.2 syntactic same-base rule is this same lattice with folding off.
///
/// Consumers: the DAG builder prunes DepKind::Memory edges for NoAlias
/// pairs (dag/DagBuilder.cpp), the BS702-BS704 lints report what the facts
/// reveal (analysis/Lint.cpp), and the memory-dependence certifier audits
/// the pruning (analysis/MemDepCertifier.h).
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_ANALYSIS_MEMDEP_H
#define BSCHED_ANALYSIS_MEMDEP_H

#include "analysis/AddressAnalysis.h"

#include <vector>

namespace bsched {

/// Relation between two memory accesses.
enum class AliasResult : uint8_t {
  NoAlias,   ///< Provably different words.
  MayAlias,  ///< Unknown; must be ordered conservatively.
  MustAlias, ///< Provably the same word.
};

/// "no-alias", "may-alias", "must-alias".
const char *aliasResultName(AliasResult R);

/// How finely same-class addresses are told apart. The DAG builder and the
/// memory-dependence certifier map DagBuildOptions to one of these in one
/// place (addressModel, dag/DagBuilder.h).
enum class AddressModel : uint8_t {
  Untracked, ///< Nothing is known: every same-class pair may alias.
  Syntactic, ///< AddressAnalysis with folding off: the same-base rule.
  Symbolic,  ///< AddressAnalysis with folding on (the default).
};

/// Classifies two *same-class* addresses by their symbolic forms alone.
AliasResult classifyAddrs(const SymbolicAddr &A, const SymbolicAddr &B);

/// Memory-dependence facts for every memory instruction of one block.
///
/// Indices are instruction positions within the block's schedulable prefix
/// (the same indexing the DAG uses). Queries about non-memory indices are
/// programming errors.
class MemoryDependenceAnalysis {
public:
  explicit MemoryDependenceAnalysis(
      const BasicBlock &BB, AddressModel Model = AddressModel::Symbolic);

  /// True if instruction \p Index is a memory access this analysis knows.
  bool isMemory(unsigned Index) const {
    return Index < Mem.size() && Mem[Index];
  }

  /// Relation between memory instructions \p I and \p J.
  AliasResult alias(unsigned I, unsigned J) const;

  /// Symbolic address of memory instruction \p Index.
  const SymbolicAddr &addressOf(unsigned Index) const {
    assert(isMemory(Index) && "addressOf on a non-memory instruction");
    return Addrs[Index];
  }

private:
  std::vector<uint8_t> Mem;        ///< isMemory per instruction.
  std::vector<SymbolicAddr> Addrs; ///< Valid where Mem is set.
  std::vector<AliasClassId> Classes;
  bool Tracked;
};

} // namespace bsched

#endif // BSCHED_ANALYSIS_MEMDEP_H
