//===- analysis/AddressAnalysis.cpp - Symbolic address analysis -----------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "analysis/AddressAnalysis.h"

#include "ir/Interpreter.h"

using namespace bsched;

SymbolicAddr AddressAnalysis::valueOf(Reg R) {
  auto [It, Inserted] = Values.try_emplace(R.rawBits());
  if (Inserted)
    It->second = freshOrigin();
  return It->second;
}

SymbolicAddr AddressAnalysis::addressOf(const Instruction &I) {
  assert(I.isMemory() && "addressOf on a non-memory instruction");
  SymbolicAddr Base = valueOf(I.addressBase());
  return SymbolicAddr{Base.Origin,
                      evalIntAlu(Opcode::AddI, Base.Offset, I.imm())};
}

void AddressAnalysis::step(const Instruction &I) {
  if (!I.hasDest() || opcodeDestIsFp(I.opcode()))
    return;

  // Compute the new value from the *pre-assignment* state (an instruction
  // may read the register it defines), then assign.
  SymbolicAddr New = Fold ? fold(I) : freshOrigin();
  Values[I.dest().rawBits()] = New;
}

SymbolicAddr AddressAnalysis::fold(const Instruction &I) {
  const Opcode Op = I.opcode();
  if (Op == Opcode::LoadImm)
    return SymbolicAddr{0, I.imm()};
  if (Op == Opcode::Move)
    return valueOf(I.source(0));
  if (!isIntAluOpcode(Op))
    return freshOrigin(); // Load, CvtFI, FSlt: not an affine form.

  // addi, muli and shli take their second operand as an immediate.
  SymbolicAddr A = valueOf(I.source(0));
  SymbolicAddr B =
      opcodeHasImm(Op) ? SymbolicAddr{0, I.imm()} : valueOf(I.source(1));
  // Known constants: the value is whatever the interpreter computes.
  if (A.isConstant() && B.isConstant())
    return SymbolicAddr{0, evalIntAlu(Op, A.Offset, B.Offset)};

  switch (Op) {
  case Opcode::AddI:
  case Opcode::Add:
    if (B.isConstant())
      return SymbolicAddr{A.Origin, evalIntAlu(Op, A.Offset, B.Offset)};
    if (A.isConstant())
      return SymbolicAddr{B.Origin, evalIntAlu(Op, B.Offset, A.Offset)};
    break;
  case Opcode::Sub:
    if (B.isConstant())
      return SymbolicAddr{A.Origin, evalIntAlu(Op, A.Offset, B.Offset)};
    if (A.Origin == B.Origin) // x+a - (x+b) = a-b, a constant.
      return SymbolicAddr{0, evalIntAlu(Op, A.Offset, B.Offset)};
    break;
  case Opcode::MulI:
    if (I.imm() == 1)
      return A;
    if (I.imm() == 0)
      return SymbolicAddr{0, 0};
    break;
  case Opcode::ShlI:
    if ((I.imm() & 63) == 0) // Shift by a multiple of 64 is identity.
      return A;
    break;
  default:
    break;
  }
  return freshOrigin();
}
