//===- perfbench/driver/Oracle.cpp - Output oracle ------------------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include "ir/Interpreter.h"

#include <array>

using namespace bsched;

namespace {

/// \p BB (a block of \p F) with every alias class renumbered to the id the
/// same name has in \p Like. The interpreter derives never-written memory
/// from the class id, so both sides must number classes alike before
/// their images compare. A class \p Like lacks can only be the allocator's
/// spill class (printed IR names it by number, so the name "__spill" does
/// not survive a round trip through text); it gets the first free id,
/// returned in \p SpillId (-1 if there is none).
BasicBlock renumbered(const Function &F, const BasicBlock &BB,
                      const Function &Like, AliasClassId &SpillId,
                      std::string &Error) {
  std::vector<AliasClassId> Map(F.numAliasClasses(), -1);
  SpillId = -1;
  for (unsigned I = 0; I != F.numAliasClasses(); ++I) {
    const std::string Name = F.aliasClassName(static_cast<AliasClassId>(I));
    for (unsigned J = 0; J != Like.numAliasClasses(); ++J)
      if (Like.aliasClassName(static_cast<AliasClassId>(J)) == Name)
        Map[I] = static_cast<AliasClassId>(J);
  }
  BasicBlock Out(BB.name(), BB.frequency());
  for (const Instruction &I : BB) {
    AliasClassId Alias = I.aliasClass();
    if (Alias != NoAliasClass) {
      if (Map[Alias] < 0) {
        if (SpillId >= 0 && Map[Alias] != SpillId)
          Error = "compiled code uses two alias classes its input lacks";
        SpillId = static_cast<AliasClassId>(Like.numAliasClasses());
        Map[Alias] = SpillId;
      }
      Alias = Map[Alias];
    }
    std::array<Reg, 3> Srcs{};
    for (size_t S = 0; S != I.sources().size(); ++S)
      Srcs[S] = I.sources()[S];
    Instruction Copy(I.opcode(), I.dest(), Srcs, I.imm(), I.fpImm(), Alias);
    if (I.hasKnownLatency())
      Copy.setKnownLatency(I.knownLatency());
    Out.append(std::move(Copy));
  }
  return Out;
}

} // namespace

std::string perfbench::checkMemoryImages(const Function &Input,
                                         const Function &Compiled) {
  if (Input.numBlocks() != Compiled.numBlocks())
    return "block count " + std::to_string(Compiled.numBlocks()) +
           " != input's " + std::to_string(Input.numBlocks());
  for (unsigned B = 0; B != Input.numBlocks(); ++B) {
    AliasClassId Spill = -1;
    std::string Error;
    const BasicBlock Output =
        renumbered(Compiled, Compiled.block(B), Input, Spill, Error);
    if (!Error.empty())
      return Error;
    Interpreter Before, After;
    Before.run(Input.block(B));
    After.run(Output);
    if (Before.memoryImage() != After.memoryImageExcluding(Spill))
      return "memory image of block '" + Input.block(B).name() +
             "' differs from its input's";
  }
  return {};
}
