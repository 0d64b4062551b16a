//===- analysis/MemDep.cpp - Memory-dependence analysis -------------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "analysis/MemDep.h"

using namespace bsched;

const char *bsched::aliasResultName(AliasResult R) {
  switch (R) {
  case AliasResult::NoAlias:
    return "no-alias";
  case AliasResult::MayAlias:
    return "may-alias";
  case AliasResult::MustAlias:
    return "must-alias";
  }
  return "unknown";
}

AliasResult bsched::classifyAddrs(const SymbolicAddr &A,
                                  const SymbolicAddr &B) {
  if (A.Origin == B.Origin)
    return A.Offset == B.Offset ? AliasResult::MustAlias
                                : AliasResult::NoAlias;
  return AliasResult::MayAlias;
}

MemoryDependenceAnalysis::MemoryDependenceAnalysis(const BasicBlock &BB,
                                                   AddressModel Model)
    : Tracked(Model != AddressModel::Untracked) {
  const unsigned N = BB.schedulableSize();
  Mem.assign(N, 0);
  Addrs.resize(N);
  Classes.assign(N, NoAliasClass);

  AddressAnalysis AA(/*Fold=*/Model == AddressModel::Symbolic);
  for (unsigned I = 0; I != N; ++I) {
    const Instruction &Instr = BB[I];
    if (Instr.isMemory()) {
      Mem[I] = 1;
      Addrs[I] = AA.addressOf(Instr); // Pre-step: uses the pre-def base.
      Classes[I] = Instr.aliasClass();
    }
    AA.step(Instr);
  }
}

AliasResult MemoryDependenceAnalysis::alias(unsigned I, unsigned J) const {
  assert(isMemory(I) && isMemory(J) && "alias query on non-memory index");
  if (Classes[I] != Classes[J])
    return AliasResult::NoAlias;
  if (!Tracked)
    return AliasResult::MayAlias;
  return classifyAddrs(Addrs[I], Addrs[J]);
}
