//===- analysis/AddressAnalysis.h - Symbolic address analysis --*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Intra-block symbolic value numbering for integer registers, built so the
/// memory-dependence analysis (analysis/MemDep.h) can compare addresses.
///
/// Every integer value is tracked as an *affine form* `origin + offset`:
/// an opaque origin (a live-in register, a load result, or any computation
/// the transfer functions do not model) plus a constant displacement that
/// wraps mod 2^64. Origin 0 is the distinguished absolute origin, so
/// `{0, c}` is the known constant `c`. An integer op whose operands are
/// all known constants folds through the interpreter's own ALU
/// (evalIntAlu, ir/Interpreter.h); the remaining transfer functions are
/// symbolic: `LoadImm`/`Move`, displacement by a constant, same-origin
/// differences and the identities of `MulI` and `ShlI`. Displacements use
/// the same wrapping add — that is what makes "same origin, different
/// offset" a sound no-alias proof: the two addresses differ by a nonzero
/// constant mod 2^64, so they denote different words for every concrete
/// value of the origin.
///
/// Generator-produced induction patterns (workload/KernelGen.h cursors:
/// `LoadImm` array bases spaced apart, bumped by `AddI`) fold into either
/// the absolute origin or a shared live-in origin, which yields the
/// constant-distance "stride" facts the DAG builder prunes with.
///
/// With folding off, every integer def is a fresh origin, so two addresses
/// share an origin only when they read the same value of the same base
/// register. That is the syntactic same-base rule of the paper's section
/// 4.2 compiler, and the only other precision the repository uses
/// (AddressModel::Syntactic, analysis/MemDep.h).
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_ANALYSIS_ADDRESSANALYSIS_H
#define BSCHED_ANALYSIS_ADDRESSANALYSIS_H

#include "ir/BasicBlock.h"
#include "ir/RegTable.h"

#include <cstdint>

namespace bsched {

/// An affine symbolic value: `origin + offset (mod 2^64)`. Origin 0 is the
/// absolute origin, so a value with `Origin == 0` is the known constant
/// `Offset`. Any other origin is an opaque unknown; two values share an
/// origin only when they are provably displaced from the *same* runtime
/// quantity.
struct SymbolicAddr {
  uint32_t Origin = 0;
  int64_t Offset = 0;

  bool isConstant() const { return Origin == 0; }
  friend bool operator==(const SymbolicAddr &, const SymbolicAddr &) = default;
};

/// Forward symbolic evaluation of one basic block's integer dataflow.
///
/// Use incrementally: query (`valueOf`, `addressOf`) *before* calling
/// `step` on the instruction, then `step` it — exactly the order the DAG
/// builder visits code. `addressOf` must precede `step` because a load may
/// define its own base register (`load %i1, [%i1+0]`); the address uses
/// the pre-def value.
class AddressAnalysis {
public:
  /// \p Fold off gives every integer def a fresh origin (the syntactic
  /// same-base rule) instead of applying the transfer functions.
  explicit AddressAnalysis(bool Fold = true) : Fold(Fold) {}

  /// Symbolic value currently held by integer register \p R. A register
  /// never assigned in the block lazily receives a fresh origin that stays
  /// stable for the rest of the analysis (live-ins are unknown but equal
  /// to themselves).
  SymbolicAddr valueOf(Reg R);

  /// Effective address of memory instruction \p I under the current
  /// register state: `base + imm` folded with the interpreter's wrapping
  /// add. Call before step(I).
  SymbolicAddr addressOf(const Instruction &I);

  /// Applies \p I's transfer function to the register state.
  void step(const Instruction &I);

private:
  SymbolicAddr freshOrigin() { return SymbolicAddr{NextOrigin++, 0}; }

  /// The value \p I defines, computed from the pre-assignment state.
  SymbolicAddr fold(const Instruction &I);

  RegMap<SymbolicAddr> Values;
  uint32_t NextOrigin = 1;
  bool Fold;
};

} // namespace bsched

#endif // BSCHED_ANALYSIS_ADDRESSANALYSIS_H
