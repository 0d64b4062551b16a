//===- analysis/AllocationCertifier.cpp - Allocation certification --------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "analysis/AllocationCertifier.h"

#include "ir/RegTable.h"
#include "support/ResourceGovernor.h"

#include <cstring>
#include <optional>
#include <unordered_map>

using namespace bsched;

namespace {

/// A specific value: the Gen-th definition of a virtual register (0 = the
/// block live-in value, before any in-block definition).
struct Value {
  uint32_t VregRaw = 0;
  unsigned Gen = 0;

  bool operator==(const Value &O) const {
    return VregRaw == O.VregRaw && Gen == O.Gen;
  }
};

std::string valueStr(Value V) {
  return Reg::fromRawBits(V.VregRaw).str() + "#" + std::to_string(V.Gen);
}

/// True when \p A is \p B with only register operands rewritten.
bool sameShape(const Instruction &A, const Instruction &B) {
  if (A.opcode() != B.opcode() || A.imm() != B.imm() ||
      A.aliasClass() != B.aliasClass() || A.hasDest() != B.hasDest() ||
      A.sources().size() != B.sources().size())
    return false;
  const double FpA = A.fpImm(), FpB = B.fpImm();
  if (std::memcmp(&FpA, &FpB, sizeof(double)) != 0)
    return false;
  if (A.isLoad()) {
    if (A.hasKnownLatency() != B.hasKnownLatency())
      return false;
    if (A.hasKnownLatency() && A.knownLatency() != B.knownLatency())
      return false;
  }
  return true;
}

/// The certifier's symbolic machine: registers and spill slots hold value
/// generations; every rewritten operand must read the generation the
/// original program read.
class AllocationChecker {
public:
  AllocationChecker(const BasicBlock &Before, const BasicBlock &After,
                    const RegAllocResult &Alloc,
                    const TargetDescription &Target, AliasClassId SpillClass,
                    ResourceGovernor *Governor)
      : Before(Before), After(After), Alloc(Alloc), Target(Target),
        SpillClass(SpillClass), Governor(Governor) {}

  std::vector<Diagnostic> run();

private:
  std::string where(unsigned Index) const {
    return "allocated instruction " + std::to_string(Index) + " (" +
           After[Index].str() + ")";
  }

  void error(DiagCode Code, std::string Message) {
    Diags.push_back({0, 0, std::move(Message), Severity::Error, Code});
  }

  /// Allocator-inserted spill code: a load/store in the spill alias class
  /// whose base is the reserved frame pointer. Program code can produce
  /// neither — the frame pointer is never handed to program values.
  bool isSpillCode(const Instruction &I) const {
    return (I.isLoad() || I.isStore()) && I.aliasClass() == SpillClass &&
           I.addressBase() == Target.framePointer();
  }

  /// BS722: \p R fits the target's register files; the frame pointer only
  /// ever addresses spill code.
  void checkBound(Reg R, bool IsSpillBase, unsigned Index) {
    if (!R.isPhysical())
      return; // Virtual leftovers are shape errors, reported separately.
    if (R == Target.framePointer()) {
      if (!IsSpillBase)
        error(DiagCode::CertifyAllocRegisterBound,
              "reserved frame pointer " + R.str() +
                  " used outside spill code in " + where(Index));
      return;
    }
    unsigned Limit =
        Target.generalRegs(R.regClass()) + Target.SpillPoolSize;
    if (R.id() >= Limit)
      error(DiagCode::CertifyAllocRegisterBound,
            R.str() + " in " + where(Index) + " exceeds the register file (" +
                std::to_string(Limit) + " registers in class)");
  }

  void checkBounds(const Instruction &I, unsigned Index) {
    bool Spill = isSpillCode(I);
    for (unsigned S = 0, E = static_cast<unsigned>(I.sources().size());
         S != E; ++S) {
      bool IsBase = Spill && (I.isStore() ? S == 1 : S == 0);
      checkBound(I.source(S), IsBase, Index);
    }
    if (I.hasDest())
      checkBound(I.dest(), /*IsSpillBase=*/false, Index);
  }

  /// BS721: physical register \p Phys, read at \p Index, must hold the
  /// current generation of virtual register \p Vreg.
  void checkRead(Reg Phys, Reg Vreg, unsigned Index) {
    Value Want{Vreg.rawBits(), genOf(Vreg)};
    std::optional<Value> Held = heldBy(Phys);
    if (Held && *Held == Want)
      return;
    error(DiagCode::CertifyAllocWrongValue,
          where(Index) + " reads " + Phys.str() + " expecting " +
              valueStr(Want) +
              (!Held ? " but the register holds no tracked value"
                     : " but the register holds " + valueStr(*Held)));
  }

  unsigned genOf(Reg Vreg) const {
    const unsigned *Gen = GenOf.find(Vreg);
    return Gen ? *Gen : 0;
  }

  /// The value physical register \p Phys holds, if it holds a tracked one.
  std::optional<Value> heldBy(Reg Phys) const {
    const std::optional<Value> *Held = RegHolds.find(Phys);
    return Held ? *Held : std::nullopt;
  }

  void handleSpill(const Instruction &I, unsigned Index) {
    if (I.isStore()) {
      ++Stores;
      Reg Val = I.source(0);
      std::optional<Value> Held = heldBy(Val);
      if (!Held) {
        error(DiagCode::CertifyAllocBadSpill,
              where(Index) + " spills " + Val.str() +
                  " which holds no tracked value");
        SlotHolds.erase(I.imm());
      } else {
        SlotHolds[I.imm()] = *Held;
      }
    } else {
      ++Loads;
      Reg Dest = I.dest();
      auto It = SlotHolds.find(I.imm());
      if (It == SlotHolds.end()) {
        error(DiagCode::CertifyAllocBadSpill,
              where(Index) + " reloads spill slot " + std::to_string(I.imm()) +
                  " which was never stored");
        RegHolds[Dest].reset();
      } else {
        RegHolds[Dest] = It->second;
      }
    }
  }

  /// Matches \p I (at \p Index in the output) against the next original
  /// instruction, checking operands value-by-value.
  void handleProgram(const Instruction &I, unsigned Index,
                     const Instruction &Orig) {
    if (!sameShape(I, Orig)) {
      error(DiagCode::CertifyAllocShapeMismatch,
            where(Index) + " does not match input instruction " +
                std::to_string(NextOrig) + " (" + Orig.str() + ")");
      return; // Operand correspondence is meaningless on a shape mismatch.
    }

    for (unsigned S = 0, E = static_cast<unsigned>(I.sources().size());
         S != E; ++S) {
      Reg OrigSrc = Orig.source(S), NewSrc = I.source(S);
      if (!OrigSrc.isVirtual()) {
        if (NewSrc != OrigSrc)
          error(DiagCode::CertifyAllocShapeMismatch,
                where(Index) + " rewrote non-virtual operand " +
                    OrigSrc.str() + " to " + NewSrc.str());
        continue;
      }
      if (!NewSrc.isPhysical()) {
        error(DiagCode::CertifyAllocShapeMismatch,
              where(Index) + " left operand " + NewSrc.str() +
                  " unallocated");
        continue;
      }
      checkRead(NewSrc, OrigSrc, Index);
    }

    if (Orig.hasDest()) {
      Reg OrigDest = Orig.dest(), NewDest = I.dest();
      if (!OrigDest.isVirtual()) {
        if (NewDest != OrigDest)
          error(DiagCode::CertifyAllocShapeMismatch,
                where(Index) + " rewrote non-virtual destination " +
                    OrigDest.str() + " to " + NewDest.str());
      } else if (!NewDest.isPhysical()) {
        error(DiagCode::CertifyAllocShapeMismatch,
              where(Index) + " left destination " + NewDest.str() +
                  " unallocated");
      } else {
        // A definition creates the next generation; whatever the register
        // held before is gone (stale copies elsewhere are caught at reads).
        unsigned Gen = ++GenOf[OrigDest];
        RegHolds[NewDest] = Value{OrigDest.rawBits(), Gen};
      }
    }
  }

  const BasicBlock &Before;
  const BasicBlock &After;
  const RegAllocResult &Alloc;
  const TargetDescription &Target;
  AliasClassId SpillClass;
  ResourceGovernor *Governor;

  std::vector<Diagnostic> Diags;
  RegMap<unsigned> GenOf;                       // vreg -> current gen.
  RegMap<std::optional<Value>> RegHolds;        // phys reg -> value.
  std::unordered_map<int64_t, Value> SlotHolds; // spill offset -> value.
  unsigned NextOrig = 0;
  unsigned Stores = 0, Loads = 0;
};

std::vector<Diagnostic> AllocationChecker::run() {
  // The entry state: each live-in's value sits where LiveInAssignment says.
  for (const auto &[VregRaw, Phys] : Alloc.LiveInAssignment)
    RegHolds[Phys] = Value{VregRaw, 0};
  for (unsigned Index = 0, E = After.size(); Index != E; ++Index) {
    if (Governor && !Governor->poll())
      return std::move(Diags); // Partial; caller checks Governor->tripped().
    const Instruction &I = After[Index];
    checkBounds(I, Index);
    if (isSpillCode(I)) {
      handleSpill(I, Index);
      continue;
    }
    if (NextOrig == Before.size()) {
      error(DiagCode::CertifyAllocShapeMismatch,
            where(Index) + " appears after every input instruction was "
                           "already emitted");
      break;
    }
    handleProgram(I, Index, Before[NextOrig]);
    ++NextOrig;
  }

  if (NextOrig != Before.size())
    error(DiagCode::CertifyAllocMissingInstruction,
          "input instruction " + std::to_string(NextOrig) + " (" +
              Before[NextOrig].str() + ") and " +
              std::to_string(Before.size() - NextOrig - 1) +
              " following it were dropped by allocation");

  if (Stores != Alloc.SpillStores || Loads != Alloc.SpillLoads)
    error(DiagCode::CertifyAllocShapeMismatch,
          "allocation reports " + std::to_string(Alloc.SpillStores) +
              " spill stores / " + std::to_string(Alloc.SpillLoads) +
              " reloads but the block contains " + std::to_string(Stores) +
              " / " + std::to_string(Loads));

  return std::move(Diags);
}

} // namespace

std::vector<Diagnostic>
bsched::certifyAllocation(const BasicBlock &Before, const BasicBlock &After,
                          const RegAllocResult &Alloc,
                          const TargetDescription &Target,
                          AliasClassId SpillClass,
                          ResourceGovernor *Governor) {
  return AllocationChecker(Before, After, Alloc, Target, SpillClass, Governor)
      .run();
}
