//===- dag/DagBuilder.cpp - Dependence analysis ----------------------------=//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "dag/DagBuilder.h"

#include "analysis/AddressAnalysis.h"
#include "ir/RegTable.h"
#include "support/ResourceGovernor.h"

#include <unordered_map>

using namespace bsched;

namespace {

constexpr uint32_t NoUse = ~uint32_t(0);

/// Per-register def/use tracking for RAW/WAR/WAW edges. The uses since
/// the reaching def form a chain through the builder's use links, oldest
/// first, so a redefinition adds its anti edges in program order.
struct RegState {
  int LastDef = -1;         ///< Node index of the reaching def.
  uint32_t FirstUse = NoUse; ///< Link of the oldest use since that def.
  uint32_t LastUse = NoUse;  ///< Link of the newest.
};

/// One use in a chain of uses since a def.
struct UseLink {
  unsigned Node;
  uint32_t Next;
};

/// A memory access remembered for ordering decisions, with its address
/// sampled before the access's own def (a load may redefine its base).
struct MemAccess {
  unsigned Node;
  SymbolicAddr Addr;
};

} // namespace

AddressModel bsched::addressModel(const DagBuildOptions &Options) {
  if (Options.AliasAnalysis)
    return AddressModel::Symbolic;
  return Options.DisambiguateSameBase ? AddressModel::Syntactic
                                      : AddressModel::Untracked;
}

DepDag bsched::buildDag(const BasicBlock &BB, const DagBuildOptions &Options) {
  DepDag Dag;
  buildDagInto(Dag, BB, Options);
  return Dag;
}

void bsched::buildDagInto(DepDag &Dag, const BasicBlock &BB,
                          const DagBuildOptions &Options) {
  Dag.rebuild(BB);
  unsigned N = Dag.size();

  RegMap<RegState> Regs;
  std::vector<UseLink> UseLinks;

  // Per alias class: live memory accesses that later operations may need to
  // order against. Pruning is sound because anything erased or skipped is
  // transitively protected:
  //  - an access is dropped from the live lists only when a later store has
  //    the *identical* address (and thus an edge to it); any later
  //    operation classifies identically against eraser and erased, so the
  //    eraser's edge closes the path. NoAlias answers need no edge at all —
  //    the addresses differ by a nonzero constant mod 2^64;
  //  - with nothing tracked, every store orders with everything live and
  //    with everything later in the class, so it is a full barrier.
  struct ClassState {
    std::vector<MemAccess> Stores;
    std::vector<MemAccess> Loads;
  };
  std::unordered_map<AliasClassId, ClassState> Classes;

  const AddressModel Model = addressModel(Options);
  const bool Tracked = Model != AddressModel::Untracked;
  AddressAnalysis AA(/*Fold=*/Model == AddressModel::Symbolic);

  DagAliasStats LocalStats;
  DagAliasStats &Stats = Options.AliasStats ? *Options.AliasStats : LocalStats;

  ResourceGovernor *Gov = Options.Governor;
  for (unsigned I = 0; I != N; ++I) {
    if (Gov && (!Gov->poll() ||
                !Gov->admit(BudgetKind::DagEdges, Dag.numEdges()))) {
      Dag.freeze();
      return; // Partial; caller must check Gov->tripped().
    }

    const Instruction &Instr = Dag.instruction(I);

    // -- Register dependences -------------------------------------------
    for (Reg Src : Instr.sources()) {
      RegState &State = Regs[Src];
      if (State.LastDef >= 0)
        Dag.addEdge(static_cast<unsigned>(State.LastDef), I, DepKind::Data);
      const uint32_t Link = static_cast<uint32_t>(UseLinks.size());
      UseLinks.push_back({I, NoUse});
      if (State.LastUse == NoUse)
        State.FirstUse = Link;
      else
        UseLinks[State.LastUse].Next = Link;
      State.LastUse = Link;
    }
    if (Instr.hasDest()) {
      RegState &State = Regs[Instr.dest()];
      for (uint32_t Link = State.FirstUse; Link != NoUse;
           Link = UseLinks[Link].Next)
        if (UseLinks[Link].Node != I)
          Dag.addEdge(UseLinks[Link].Node, I, DepKind::Anti);
      if (State.LastDef >= 0 && !Dag.hasEdge(State.LastDef, I))
        Dag.addEdge(static_cast<unsigned>(State.LastDef), I,
                    DepKind::Output);
      State.LastDef = static_cast<int>(I);
      State.FirstUse = State.LastUse = NoUse;
    }

    // -- Memory dependences ---------------------------------------------
    if (!Instr.isMemory()) {
      AA.step(Instr);
      continue;
    }

    MemAccess Access{I, AA.addressOf(Instr)};
    AA.step(Instr); // Address sampled above, pre-def; now advance.
    ClassState &Class = Classes[Instr.aliasClass()];

    // One ordered comparison of this access against a live prior access;
    // NoAlias suppresses the would-be memory edge (counted as pruned).
    auto Query = [&](const MemAccess &Prior) {
      AliasResult R = Tracked ? classifyAddrs(Prior.Addr, Access.Addr)
                              : AliasResult::MayAlias;
      ++Stats.Queries;
      switch (R) {
      case AliasResult::NoAlias:
        ++Stats.NoAlias;
        ++Stats.EdgesPruned;
        break;
      case AliasResult::MustAlias:
        ++Stats.MustAlias;
        break;
      case AliasResult::MayAlias:
        ++Stats.MayAlias;
        break;
      }
      return R;
    };

    if (Instr.isLoad()) {
      // RAW: order after any store that may write this word.
      for (const MemAccess &St : Class.Stores)
        if (Query(St) != AliasResult::NoAlias)
          Dag.addEdge(St.Node, I, DepKind::Memory);
      Class.Loads.push_back(Access);
      continue;
    }

    // A store: WAW with prior stores, WAR with prior loads.
    for (const MemAccess &St : Class.Stores)
      if (Query(St) != AliasResult::NoAlias)
        Dag.addEdge(St.Node, I, DepKind::Memory);
    for (const MemAccess &Ld : Class.Loads)
      if (Query(Ld) != AliasResult::NoAlias)
        Dag.addEdge(Ld.Node, I, DepKind::Memory);

    if (!Tracked) {
      // Untracked address: this store ordered with every live access and
      // will order with every later access in the class, so it is a full
      // barrier — both live lists are cleared and repopulated with just
      // this store (loads never need ordering among themselves, so the
      // store entry alone carries the barrier for both later loads and
      // later stores).
      Class.Stores.clear();
      Class.Loads.clear();
    } else {
      // Must-alias pruning: an access at exactly this word is protected by
      // its edge to this store; any later access aliasing it also aliases
      // this store and will be ordered after it.
      auto SameWord = [&](const MemAccess &Other) {
        return Other.Addr == Access.Addr;
      };
      std::erase_if(Class.Stores, SameWord);
      std::erase_if(Class.Loads, SameWord);
    }
    Class.Stores.push_back(Access);
  }

  // The loop head admitted the edges of every instruction but the last.
  if (Gov)
    Gov->admit(BudgetKind::DagEdges, Dag.numEdges());
  Dag.freeze();
}
