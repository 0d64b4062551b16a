//===- regalloc/LocalRegAlloc.cpp - Local register allocation --------------=//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "regalloc/LocalRegAlloc.h"

#include "ir/RegTable.h"
#include "support/ResourceGovernor.h"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <unordered_set>
#include <vector>

using namespace bsched;

namespace {

constexpr unsigned NoNextUse = std::numeric_limits<unsigned>::max();

/// Where a virtual register's value currently lives, and where the block
/// reads it.
struct ValueState {
  Reg Phys;            ///< Valid while resident in a register.
  int64_t SpillSlot = -1; ///< Byte offset in the spill area, -1 if none.
  /// True while the only current copy is the register (memory absent or
  /// stale); eviction must store before freeing the register.
  bool Dirty = false;
  /// The register's reads are UsePositions[UsesBegin, UsesEnd), ascending.
  unsigned UsesBegin = 0;
  unsigned UsesEnd = 0;
};

/// The physical registers an instruction's sources occupy: at most three,
/// so a linear scan of an inline array.
class PinnedRegs {
public:
  bool contains(Reg R) const {
    return std::find(Regs.begin(), Regs.begin() + Size, R) !=
           Regs.begin() + Size;
  }

  void insert(Reg R) {
    if (contains(R))
      return;
    assert(Size != Regs.size() && "more pinned registers than sources");
    Regs[Size++] = R;
  }

private:
  std::array<Reg, 3> Regs;
  unsigned Size = 0;
};

/// Allocation state for one register class.
class ClassFile {
public:
  ClassFile(RegClass RC, const TargetDescription &Target)
      : RC(RC), Target(Target) {
    for (unsigned I = Target.generalRegs(RC); I-- > 0;)
      FreeGeneral.push_back(Reg::makePhysical(RC, I));
    PoolBinding.assign(Target.SpillPoolSize, 0);
  }

  /// Pops a free general register, or an invalid Reg if none remain.
  Reg takeFreeGeneral() {
    if (FreeGeneral.empty())
      return Reg();
    Reg R = FreeGeneral.back();
    FreeGeneral.pop_back();
    return R;
  }

  void releaseGeneral(Reg R) { FreeGeneral.push_back(R); }

  /// Chooses the next reload register: FIFO rotation (the paper's
  /// improvement) or always-lowest (GCC's serializing default). Registers
  /// in \p Pinned are skipped. Returns the pool index, or nothing when
  /// the pool is empty or every pool register is pinned.
  std::optional<unsigned> pickPoolIndex(const PinnedRegs &Pinned) {
    unsigned N = Target.SpillPoolSize;
    for (unsigned Step = 0; Step != N; ++Step) {
      unsigned Index = Target.FifoSpillPool ? (NextPool + Step) % N : Step;
      if (!Pinned.contains(Target.spillPoolReg(RC, Index))) {
        if (Target.FifoSpillPool)
          NextPool = (Index + 1) % N;
        return Index;
      }
    }
    return std::nullopt;
  }

  /// The virtual register currently reloaded into pool slot \p Index
  /// (0 = none).
  uint32_t poolBinding(unsigned Index) const { return PoolBinding[Index]; }
  void setPoolBinding(unsigned Index, uint32_t VregRaw) {
    PoolBinding[Index] = VregRaw;
  }

  /// Virtual registers resident in *general* registers, for eviction scans.
  /// Eviction breaks ties in this set's iteration order, so it stays a
  /// hash set with the same insertions and erasures: a different order
  /// would change the compiled code.
  std::unordered_set<uint32_t> ResidentGeneral;

private:
  RegClass RC;
  const TargetDescription &Target;
  std::vector<Reg> FreeGeneral;
  std::vector<uint32_t> PoolBinding;
  unsigned NextPool = 0;
};

/// The allocator for one block.
class Allocator {
public:
  Allocator(Function &F, BasicBlock &BB, const TargetDescription &Target,
            ResourceGovernor *Governor)
      : F(F), BB(BB), Target(Target), Governor(Governor),
        Files{ClassFile(RegClass::Int, Target),
              ClassFile(RegClass::Fp, Target)},
        SpillClass(F.getOrCreateAliasClass(SpillAliasClassName)) {
    buildUsePositions();
  }

  RegAllocResult run();

private:
  ClassFile &fileOf(Reg R) {
    return Files[R.regClass() == RegClass::Fp ? 1 : 0];
  }

  /// Gives every register of the block its state, so later lookups never
  /// insert, and lays out each register's read positions.
  void buildUsePositions() {
    for (const Instruction &I : BB) {
      for (Reg Src : I.sources())
        ++Values[Src].UsesEnd; // Counts the reads for now.
      if (I.hasDest())
        Values.tryEmplace(I.dest());
    }
    unsigned Begin = 0;
    for (uint32_t N = 0; N != Values.size(); ++N) {
      ValueState &State = Values.value(N);
      const unsigned Count = State.UsesEnd;
      State.UsesBegin = State.UsesEnd = Begin;
      Begin += Count;
    }
    UsePositions.resize(Begin);
    for (unsigned I = 0, E = BB.size(); I != E; ++I)
      for (Reg Src : BB[I].sources())
        UsePositions[stateOf(Src).UsesEnd++] = I;
  }

  /// The state of \p Vreg, a register of the block.
  ValueState &stateOf(Reg Vreg) {
    ValueState *State = Values.find(Vreg);
    assert(State && "register outside the block");
    return *State;
  }

  /// First use of the register with state \p State strictly after
  /// instruction \p Index.
  unsigned nextUseAfter(const ValueState &State, unsigned Index) const {
    auto End = UsePositions.begin() + State.UsesEnd;
    auto Pos =
        std::upper_bound(UsePositions.begin() + State.UsesBegin, End, Index);
    return Pos == End ? NoNextUse : *Pos;
  }

  int64_t ensureSpillSlot(ValueState &State) {
    if (State.SpillSlot < 0) {
      State.SpillSlot = NextSlotOffset;
      NextSlotOffset += 8;
    }
    return State.SpillSlot;
  }

  void emitSpillStore(Reg Phys, ValueState &State) {
    int64_t Slot = ensureSpillSlot(State);
    Opcode Op =
        Phys.regClass() == RegClass::Fp ? Opcode::FStore : Opcode::Store;
    Out.push_back(Instruction::makeStore(Op, Phys, Target.framePointer(),
                                         Slot, SpillClass));
    ++Result.SpillStores;
    State.Dirty = false;
  }

  /// Frees one general register of class \p RC, spilling the resident
  /// value with the farthest next use (Belady). Registers in \p Pinned are
  /// untouchable; returns the invalid Reg when every resident value is
  /// pinned.
  Reg evictOne(RegClass RC, unsigned Index, const PinnedRegs &Pinned) {
    ClassFile &File = Files[RC == RegClass::Fp ? 1 : 0];
    uint32_t Victim = 0;
    unsigned FarthestUse = 0;
    for (uint32_t Candidate : File.ResidentGeneral) {
      ValueState &State = stateOf(Reg::fromRawBits(Candidate));
      if (Pinned.contains(State.Phys))
        continue;
      unsigned Use = nextUseAfter(State, Index);
      // Values without further uses are free kills; otherwise prefer the
      // farthest next use.
      if (Victim == 0 || Use > FarthestUse) {
        Victim = Candidate;
        FarthestUse = Use;
      }
      if (Use == NoNextUse)
        break; // Cannot do better than a dead value.
    }
    if (Victim == 0)
      return Reg();

    ValueState &State = stateOf(Reg::fromRawBits(Victim));
    Reg Freed = State.Phys;
    if (FarthestUse != NoNextUse && State.Dirty)
      emitSpillStore(Freed, State);
    State.Phys = Reg();
    File.ResidentGeneral.erase(Victim);
    return Freed;
  }

  /// Returns a free general register of class \p RC, evicting if needed
  /// (the invalid Reg when every general register is pinned).
  Reg allocateGeneral(RegClass RC, unsigned Index,
                      const PinnedRegs &Pinned) {
    ClassFile &File = Files[RC == RegClass::Fp ? 1 : 0];
    Reg R = File.takeFreeGeneral();
    if (R.isValid())
      return R;
    return evictOne(RC, Index, Pinned);
  }

  /// Makes \p Vreg resident (reloading it if it was spilled) and returns
  /// its physical register.
  Reg ensureResident(Reg Vreg, unsigned Index, PinnedRegs &Pinned) {
    ValueState &State = stateOf(Vreg);
    if (!State.Phys.isValid()) {
      // Every value is bound from its def (or block entry) until it dies,
      // so a non-resident source was evicted and has a spill slot.
      assert(State.SpillSlot >= 0 && "read of a value never made resident");
      // Reload through the spill pool; when every pool register holds
      // another operand of this instruction (or there is no pool), into
      // a general register, which allocateGeneral picks around the pins.
      ClassFile &File = fileOf(Vreg);
      Reg Phys;
      if (std::optional<unsigned> PoolIndex = File.pickPoolIndex(Pinned)) {
        Phys = Target.spillPoolReg(Vreg.regClass(), *PoolIndex);
        // Pool values are always clean copies; just unbind.
        if (uint32_t Displaced = File.poolBinding(*PoolIndex))
          stateOf(Reg::fromRawBits(Displaced)).Phys = Reg();
        File.setPoolBinding(*PoolIndex, Vreg.rawBits());
      } else {
        // At most two other operands are pinned, and a class has at least
        // three general registers.
        Phys = allocateGeneral(Vreg.regClass(), Index, Pinned);
        assert(Phys.isValid() && "every general register pinned");
        File.ResidentGeneral.insert(Vreg.rawBits());
      }
      Opcode Op = Vreg.regClass() == RegClass::Fp ? Opcode::FLoad
                                                  : Opcode::Load;
      Out.push_back(Instruction::makeLoad(Op, Phys, Target.framePointer(),
                                          State.SpillSlot, SpillClass));
      ++Result.SpillLoads;
      State.Phys = Phys;
      State.Dirty = false;
    }
    Pinned.insert(State.Phys);
    return State.Phys;
  }

  /// Binds every live-in of the block to its own general register before
  /// instruction 0, in first-read order, and records the binding. A
  /// live-in's only copy is its register, so it is dirty until stored.
  void bindLiveIns() {
    for (Reg Vreg : blockLiveIns(BB)) {
      ClassFile &File = fileOf(Vreg);
      Reg R = File.takeFreeGeneral();
      BSCHED_CHECK(R.isValid(), "block has more live-ins than general "
                                "registers in a class");
      File.ResidentGeneral.insert(Vreg.rawBits());
      ValueState &State = stateOf(Vreg);
      State.Phys = R;
      State.Dirty = true;
      Result.LiveInAssignment.emplace(Vreg.rawBits(), R);
    }
  }

  /// Unbinds \p Vreg if it has no use after \p Index, freeing its register.
  void releaseIfDead(Reg Vreg, unsigned Index) {
    ValueState &State = stateOf(Vreg);
    if (!State.Phys.isValid() || nextUseAfter(State, Index) != NoNextUse)
      return;
    ClassFile &File = fileOf(Vreg);
    if (File.ResidentGeneral.erase(Vreg.rawBits()))
      File.releaseGeneral(State.Phys);
    // Pool registers are recycled by rotation; nothing to free there.
    State.Phys = Reg();
  }

  Function &F;
  BasicBlock &BB;
  const TargetDescription &Target;
  ResourceGovernor *Governor;
  ClassFile Files[2]; // [0] = Int, [1] = Fp.
  AliasClassId SpillClass;
  RegMap<ValueState> Values; ///< Every register the block reads or writes.
  std::vector<unsigned> UsePositions;
  std::vector<Instruction> Out;
  int64_t NextSlotOffset = 0;
  RegAllocResult Result;
};

RegAllocResult Allocator::run() {
  bindLiveIns();
  for (unsigned Index = 0, E = BB.size(); Index != E; ++Index) {
    // Spill slots are 8 bytes each; admitting the current count keeps a
    // runaway-spill block from growing the frame without bound before the
    // trip is noticed. On any trip, bail *before* setInstructions so BB
    // stays untouched.
    if (Governor &&
        (!Governor->poll() ||
         !Governor->admit(BudgetKind::SpillSlots,
                          static_cast<uint64_t>(NextSlotOffset) / 8)))
      return std::move(Result);

    Instruction I = BB[Index];
    PinnedRegs Pinned;

    // Bring every source into a register and rewrite the operands.
    for (unsigned S = 0, NumSrcs = static_cast<unsigned>(I.sources().size());
         S != NumSrcs; ++S) {
      Reg Vreg = I.source(S);
      assert(Vreg.isVirtual() && "allocator input must be virtual");
      I.setSource(S, ensureResident(Vreg, Index, Pinned));
    }

    // Sources that die here free their registers before the destination
    // allocates (reads happen before the write, so reuse is safe).
    for (Reg Vreg : BB[Index].sources())
      releaseIfDead(Vreg, Index);

    if (I.hasDest()) {
      Reg DestVreg = I.dest();
      assert(DestVreg.isVirtual() && "allocator input must be virtual");
      ValueState &State = stateOf(DestVreg);
      // A value sitting in a pool register cannot be redefined in place:
      // pool slots are recycled without spilling, so dirty data there
      // would be lost. Migrate the binding to a general register.
      if (State.Phys.isValid() &&
          State.Phys.id() >= Target.generalRegs(DestVreg.regClass())) {
        ClassFile &File = fileOf(DestVreg);
        for (unsigned P = 0; P != Target.SpillPoolSize; ++P)
          if (File.poolBinding(P) == DestVreg.rawBits())
            File.setPoolBinding(P, 0);
        State.Phys = Reg();
        // The old spill-slot copy is about to become stale.
        State.SpillSlot = -1;
      }
      if (!State.Phys.isValid()) {
        Reg R = allocateGeneral(DestVreg.regClass(), Index, Pinned);
        // Every general register holds a source that lives on. The
        // instruction reads its sources before it writes, so one of them
        // may be spilled and its register reused.
        if (!R.isValid())
          R = allocateGeneral(DestVreg.regClass(), Index, {});
        fileOf(DestVreg).ResidentGeneral.insert(DestVreg.rawBits());
        State.Phys = R;
      }
      State.Dirty = true;
      I.setDest(State.Phys);
    }

    Out.push_back(I);
  }

  BB.setInstructions(std::move(Out));
  return std::move(Result);
}

} // namespace

std::vector<Reg> bsched::blockLiveIns(const BasicBlock &BB) {
  std::vector<Reg> LiveIns;
  RegIndex Seen; // Defined, or already a live-in.
  for (const Instruction &I : BB) {
    for (Reg Src : I.sources())
      if (Seen.insert(Src).second)
        LiveIns.push_back(Src);
    if (I.hasDest())
      Seen.insert(I.dest());
  }
  return LiveIns;
}

RegAllocResult bsched::allocateRegisters(Function &F, BasicBlock &BB,
                                         const TargetDescription &Target,
                                         ResourceGovernor *Governor) {
  return Allocator(F, BB, Target, Governor).run();
}
