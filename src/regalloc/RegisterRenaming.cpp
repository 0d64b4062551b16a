//===- regalloc/RegisterRenaming.cpp - Post-RA register renaming ------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "regalloc/RegisterRenaming.h"

#include "ir/RegTable.h"
#include "regalloc/LocalRegAlloc.h"

#include <deque>
#include <vector>

using namespace bsched;

namespace {

/// Per-register timeline of definition/use positions, used to find the
/// last use of every value (def span).
struct RegTimeline {
  // Ascending instruction indices; defs and uses interleaved by position.
  std::vector<unsigned> DefPositions;
  std::vector<unsigned> UsePositions;

  // Span convention: an instruction's reads happen before its write, so a
  // use at a redefinition's own position reads the *old* value. A def at
  // position d therefore covers uses u with d < u <= nextDef(d).

  /// True if the use at \p Pos is the final use of the value live there.
  bool isLastUse(unsigned Pos) const {
    // The used value's span ends at the first def at or after Pos (a def
    // at Pos itself kills the value right after this read).
    unsigned SpanEnd = ~0u;
    for (unsigned D : DefPositions)
      if (D >= Pos) {
        SpanEnd = D;
        break;
      }
    for (unsigned U : UsePositions)
      if (U > Pos && U <= SpanEnd)
        return false;
    return true;
  }

  /// True if the def at \p Pos has no uses in its span.
  bool isDeadDef(unsigned Pos) const {
    unsigned SpanEnd = ~0u;
    for (unsigned D : DefPositions)
      if (D > Pos) {
        SpanEnd = D;
        break;
      }
    for (unsigned U : UsePositions)
      if (U > Pos && U <= SpanEnd)
        return false;
    return true;
  }
};

/// One register class's renaming state.
class ClassRenamer {
public:
  ClassRenamer(RegClass RC, const TargetDescription &Target) : RC(RC) {
    unsigned Total = RC == RegClass::Fp ? Target.NumFpRegs
                                        : Target.NumIntRegs;
    Reg FramePointer = Target.framePointer();
    for (unsigned I = 0; I != Total; ++I) {
      Reg R = Reg::makePhysical(RC, I);
      if (R == FramePointer)
        continue; // The spill base register never participates.
      Pool.push_back(R);
    }
  }

  /// Removes \p R from the free pool (live-in reservation).
  void reserve(Reg R) {
    for (auto It = Pool.begin(); It != Pool.end(); ++It)
      if (*It == R) {
        Pool.erase(It);
        return;
      }
  }

  /// Returns the least-recently-freed register, or the invalid Reg when
  /// the pool is empty.
  Reg take() {
    if (Pool.empty())
      return Reg();
    Reg R = Pool.front();
    Pool.pop_front();
    return R;
  }

  /// Returns \p R to the back of the pool (maximal reuse distance).
  void release(Reg R) { Pool.push_back(R); }

private:
  RegClass RC;
  std::deque<Reg> Pool;
};

} // namespace

RenamingResult bsched::renameRegisters(BasicBlock &BB,
                                       const TargetDescription &Target) {
  RenamingResult Result;
  unsigned N = BB.size();

  // Build per-register timelines over the original names.
  RegMap<RegTimeline> Timelines;
  for (unsigned I = 0; I != N; ++I) {
    const Instruction &Instr = BB[I];
    for (Reg Src : Instr.sources()) {
      assert(Src.isPhysical() && "renaming requires physical registers");
      RegTimeline &T = Timelines[Src];
      if (T.UsePositions.empty() || T.UsePositions.back() != I)
        T.UsePositions.push_back(I);
    }
    if (Instr.hasDest())
      Timelines[Instr.dest()].DefPositions.push_back(I);
  }

  ClassRenamer Renamers[2] = {ClassRenamer(RegClass::Int, Target),
                              ClassRenamer(RegClass::Fp, Target)};
  auto RenamerOf = [&](Reg R) -> ClassRenamer & {
    return Renamers[R.regClass() == RegClass::Fp ? 1 : 0];
  };

  // Live-in registers keep their identity until their last use: callers
  // seeded values under the original names, so those names are reserved
  // out of the pool up front. A name whose value has died maps to the
  // invalid register.
  RegMap<Reg> CurrentName;
  Reg FramePointer = Target.framePointer();
  for (Reg Src : blockLiveIns(BB)) {
    CurrentName[Src] = Src;
    if (Src != FramePointer)
      RenamerOf(Src).reserve(Src);
  }

  // Main pass: rewrite uses through CurrentName, release values at their
  // last use, give every def the least-recently-freed register.
  for (unsigned I = 0; I != N; ++I) {
    Instruction &Instr = BB[I];

    // Rewrite sources, remembering which original names die here.
    std::vector<Reg> Dying;
    for (unsigned S = 0,
                  E = static_cast<unsigned>(Instr.sources().size());
         S != E; ++S) {
      Reg Orig = Instr.source(S);
      const Reg *Name = CurrentName.find(Orig);
      assert(Name && Name->isValid() && "use of untracked register");
      Instr.setSource(S, *Name);
      if (Orig != FramePointer && Timelines.find(Orig)->isLastUse(I)) {
        bool Already = false;
        for (Reg D : Dying)
          Already |= D == Orig;
        if (!Already)
          Dying.push_back(Orig);
      }
    }
    for (Reg Orig : Dying) {
      Reg &Name = *CurrentName.find(Orig);
      RenamerOf(Name).release(Name);
      Name = Reg();
    }

    if (!Instr.hasDest())
      continue;
    Reg Orig = Instr.dest();
    if (Orig == FramePointer)
      continue; // Never rename the spill base.

    Reg NewName = RenamerOf(Orig).take();
    if (!NewName.isValid()) {
      // Pool exhausted (cannot happen in allocator output, but stay safe
      // for hand-written inputs): keep the original name.
      NewName = Orig;
      ++Result.DefsRetained;
    } else if (NewName == Orig) {
      ++Result.DefsRetained;
    } else {
      ++Result.DefsRenamed;
    }
    Instr.setDest(NewName);

    if (Timelines.find(Orig)->isDeadDef(I)) {
      // Dead value: its register is immediately reusable.
      RenamerOf(NewName).release(NewName);
    } else {
      CurrentName[Orig] = NewName;
    }
  }
  return Result;
}
