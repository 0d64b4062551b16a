//===- analysis/Lint.cpp - IR lint analyses -------------------------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"

#include "analysis/Dataflow.h"
#include "analysis/MemDep.h"

#include <algorithm>
#include <unordered_set>

using namespace bsched;

namespace {

std::string where(const BasicBlock &BB, unsigned Index) {
  return "block '" + BB.name() + "' instruction " + std::to_string(Index) +
         " (" + BB[Index].str() + ")";
}

void warn(std::vector<Diagnostic> &Diags, DiagCode Code, std::string Message) {
  Diags.push_back(
      {0, 0, std::move(Message), Severity::Warning, Code});
}

/// One read-before-write warning per live-in register, at its first use.
void lintUseBeforeDef(const BasicBlock &BB, const ReachingDefsResult &Defs,
                      std::vector<Diagnostic> &Diags) {
  std::unordered_set<uint32_t> Reported;
  for (unsigned I = 0, E = BB.size(); I != E; ++I)
    for (unsigned S = 0,
                  N = static_cast<unsigned>(BB[I].sources().size());
         S != N; ++S)
      if (Defs.sourceDef(I, S) == ReachingLiveIn &&
          Reported.insert(BB[I].source(S).rawBits()).second)
        warn(Diags, DiagCode::LintUseBeforeDef,
             BB[I].source(S).str() + " is read but never defined in " +
                 where(BB, I) + "; the value is a block live-in");
}

void lintDeadValues(const BasicBlock &BB, const LivenessResult &Live,
                    std::vector<Diagnostic> &Diags) {
  for (unsigned I = 0, E = BB.size(); I != E; ++I) {
    const Instruction &Instr = BB[I];
    if (!Instr.hasDest() || Live.isLiveAfter(I, Instr.dest()))
      continue;
    warn(Diags, DiagCode::LintDeadValue,
         Instr.dest().str() + " defined by " + where(BB, I) +
             " is never read afterwards; the definition is dead");
  }
}

/// BS702: a load of a word whose value is already in a register — an
/// earlier load of it, or the value just stored to it — with no
/// possibly-aliasing store in between. \p SameBase is built with folding
/// off, so "the same word" is the dependence analyzer's syntactic rule:
/// the same value of the same base register at the same offset.
void lintRedundantLoads(const Function &F, const BasicBlock &BB,
                        const MemoryDependenceAnalysis &SameBase,
                        std::vector<Diagnostic> &Diags) {
  // Accesses whose word's value is currently available in a register; no
  // two of them must-alias.
  std::vector<unsigned> Available;
  for (unsigned I = 0, E = BB.schedulableSize(); I != E; ++I) {
    const Instruction &Instr = BB[I];
    if (Instr.isLoad()) {
      auto It = std::find_if(Available.begin(), Available.end(),
                             [&](unsigned A) {
                               return SameBase.alias(A, I) ==
                                      AliasResult::MustAlias;
                             });
      if (It != Available.end())
        warn(Diags, DiagCode::LintRedundantLoad,
             where(BB, I) + " reloads " +
                 F.aliasClassName(Instr.aliasClass()) + "[base+" +
                 std::to_string(Instr.imm()) +
                 "], already available from instruction " +
                 std::to_string(*It));
      else
        Available.push_back(I);
    } else if (Instr.isStore()) {
      // Kill every access the store may overwrite; the stored word's value
      // is now available in a register.
      std::erase_if(Available, [&](unsigned A) {
        return SameBase.alias(A, I) != AliasResult::NoAlias;
      });
      Available.push_back(I);
    }
  }
}

/// BS703: a load that provably reads the word a prior store wrote, with
/// nothing that might clobber it in between. Scans backward from the load;
/// a MayAlias store is a possible clobber (stop silently), a NoAlias store
/// is skipped, and a MustAlias store is the forwarding source. Fires only
/// when the proof needed folding — pairs that \p SameBase already calls
/// MustAlias are BS702's finding (lintRedundantLoads).
void lintStoreForward(const BasicBlock &BB,
                      const MemoryDependenceAnalysis &MD,
                      const MemoryDependenceAnalysis &SameBase,
                      std::vector<Diagnostic> &Diags) {
  for (unsigned I = 0, E = BB.schedulableSize(); I != E; ++I) {
    const Instruction &Load = BB[I];
    if (!Load.isLoad())
      continue;
    for (unsigned J = I; J-- > 0;) {
      const Instruction &Prior = BB[J];
      if (!Prior.isStore() || Prior.aliasClass() != Load.aliasClass())
        continue; // Loads never clobber; other classes never alias.
      AliasResult R = MD.alias(J, I);
      if (R == AliasResult::NoAlias)
        continue;
      if (R == AliasResult::MustAlias) {
        if (SameBase.alias(J, I) != AliasResult::MustAlias)
          warn(Diags, DiagCode::LintStoreForward,
               where(BB, I) + " provably reads the word stored by "
                              "instruction " +
                   std::to_string(J) + " (" + BB[J].str() +
                   "); forwarding " + Prior.storedValue().str() +
                   " would remove the load");
      }
      break; // MustAlias handled; MayAlias is a possible clobber.
    }
  }
}

/// BS704: a store provably overwritten by a later same-word store with no
/// possibly-aliasing load in between. No finding at end of block — memory
/// is live out.
void lintDeadStores(const BasicBlock &BB,
                    const MemoryDependenceAnalysis &MD,
                    std::vector<Diagnostic> &Diags) {
  for (unsigned I = 0, E = BB.schedulableSize(); I != E; ++I) {
    if (!BB[I].isStore())
      continue;
    for (unsigned J = I + 1; J != E; ++J) {
      const Instruction &Later = BB[J];
      if (!Later.isMemory() || Later.aliasClass() != BB[I].aliasClass())
        continue;
      AliasResult R = MD.alias(I, J);
      if (Later.isLoad()) {
        if (R != AliasResult::NoAlias)
          break; // Possibly read: the store is live.
        continue;
      }
      if (R == AliasResult::MustAlias) {
        warn(Diags, DiagCode::LintDeadStore,
             where(BB, I) + " is overwritten by instruction " +
                 std::to_string(J) + " (" + BB[J].str() +
                 ") before any possible read; the store is dead");
        break;
      }
      // A MayAlias/NoAlias store neither reads the word nor provably
      // overwrites it; keep scanning.
    }
  }
}

} // namespace

std::vector<Diagnostic> bsched::lintBlock(const Function &F,
                                          const BasicBlock &BB,
                                          const LintOptions &Options) {
  std::vector<Diagnostic> Diags;
  if (Options.WarnUseBeforeDef)
    lintUseBeforeDef(BB, computeReachingDefs(BB), Diags);
  if (Options.WarnDeadValue) {
    LivenessResult Live = computeLiveness(BB);
    lintDeadValues(BB, Live, Diags);
  }
  const MemoryDependenceAnalysis SameBase(BB, AddressModel::Syntactic);
  if (Options.WarnRedundantLoad)
    lintRedundantLoads(F, BB, SameBase, Diags);
  if (Options.WarnStoreForward || Options.WarnDeadStore) {
    MemoryDependenceAnalysis MD(BB);
    if (Options.WarnStoreForward)
      lintStoreForward(BB, MD, SameBase, Diags);
    if (Options.WarnDeadStore)
      lintDeadStores(BB, MD, Diags);
  }
  return Diags;
}

std::vector<Diagnostic> bsched::lintFunction(const Function &F,
                                             const LintOptions &Options) {
  std::vector<Diagnostic> Diags;
  for (const BasicBlock &BB : F) {
    std::vector<Diagnostic> BlockDiags = lintBlock(F, BB, Options);
    for (Diagnostic &D : BlockDiags)
      Diags.push_back(std::move(D));
  }
  return Diags;
}
