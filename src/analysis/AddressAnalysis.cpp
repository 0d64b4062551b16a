//===- analysis/AddressAnalysis.cpp - Symbolic address analysis -----------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "analysis/AddressAnalysis.h"

#include <limits>

using namespace bsched;

namespace {

// The interpreter's two's-complement wrapping arithmetic
// (ir/Interpreter.cpp). The folds below must agree with it bit for bit on
// the cases they claim to know, or a "same origin, different offset"
// no-alias proof would not hold mod 2^64.
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}

int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}

int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

int64_t wrapShl(int64_t A, int64_t N) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) << (N & 63));
}

int64_t safeDiv(int64_t A, int64_t B) {
  if (B == 0)
    return 0;
  if (A == std::numeric_limits<int64_t>::min() && B == -1)
    return A;
  return A / B;
}

int64_t safeRem(int64_t A, int64_t B) {
  if (B == 0)
    return 0;
  if (B == -1)
    return 0;
  return A % B;
}

} // namespace

SymbolicAddr AddressAnalysis::valueOf(Reg R) {
  auto [It, Inserted] = Values.try_emplace(R.rawBits());
  if (Inserted)
    It->second = freshOrigin();
  return It->second;
}

SymbolicAddr AddressAnalysis::addressOf(const Instruction &I) {
  assert(I.isMemory() && "addressOf on a non-memory instruction");
  SymbolicAddr Base = valueOf(I.addressBase());
  return SymbolicAddr{Base.Origin, wrapAdd(Base.Offset, I.imm())};
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
  SymbolicAddr New;
  switch (I.opcode()) {
  case Opcode::LoadImm:
    New = SymbolicAddr{0, I.imm()};
    break;
  case Opcode::Move:
    New = valueOf(I.source(0));
    break;
  case Opcode::AddI: {
    SymbolicAddr V = valueOf(I.source(0));
    New = SymbolicAddr{V.Origin, wrapAdd(V.Offset, I.imm())};
    break;
  }
  case Opcode::Add: {
    SymbolicAddr A = valueOf(I.source(0)), B = valueOf(I.source(1));
    if (B.isConstant())
      New = SymbolicAddr{A.Origin, wrapAdd(A.Offset, B.Offset)};
    else if (A.isConstant())
      New = SymbolicAddr{B.Origin, wrapAdd(B.Offset, A.Offset)};
    else
      New = freshOrigin();
    break;
  }
  case Opcode::Sub: {
    SymbolicAddr A = valueOf(I.source(0)), B = valueOf(I.source(1));
    if (B.isConstant())
      New = SymbolicAddr{A.Origin, wrapSub(A.Offset, B.Offset)};
    else if (A.Origin == B.Origin) // x+a - (x+b) = a-b, a constant.
      New = SymbolicAddr{0, wrapSub(A.Offset, B.Offset)};
    else
      New = freshOrigin();
    break;
  }
  case Opcode::MulI: {
    SymbolicAddr V = valueOf(I.source(0));
    if (V.isConstant())
      New = SymbolicAddr{0, wrapMul(V.Offset, I.imm())};
    else if (I.imm() == 1)
      New = V;
    else if (I.imm() == 0)
      New = SymbolicAddr{0, 0};
    else
      New = freshOrigin();
    break;
  }
  case Opcode::ShlI: {
    SymbolicAddr V = valueOf(I.source(0));
    if (V.isConstant())
      New = SymbolicAddr{0, wrapShl(V.Offset, I.imm())};
    else if ((I.imm() & 63) == 0) // Shift by a multiple of 64 is identity.
      New = V;
    else
      New = freshOrigin();
    break;
  }
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Rem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Slt: {
    SymbolicAddr A = valueOf(I.source(0)), B = valueOf(I.source(1));
    if (!A.isConstant() || !B.isConstant()) {
      New = freshOrigin();
      break;
    }
    int64_t X = A.Offset, Y = B.Offset, R = 0;
    switch (I.opcode()) {
    case Opcode::Mul:
      R = wrapMul(X, Y);
      break;
    case Opcode::Div:
      R = safeDiv(X, Y);
      break;
    case Opcode::Rem:
      R = safeRem(X, Y);
      break;
    case Opcode::And:
      R = X & Y;
      break;
    case Opcode::Or:
      R = X | Y;
      break;
    case Opcode::Xor:
      R = X ^ Y;
      break;
    case Opcode::Shl:
      R = wrapShl(X, Y);
      break;
    case Opcode::Shr:
      R = static_cast<int64_t>(static_cast<uint64_t>(X) >> (Y & 63));
      break;
    default: // Slt
      R = X < Y ? 1 : 0;
      break;
    }
    New = SymbolicAddr{0, R};
    break;
  }
  default:
    // Load, CvtFI, FSlt, ... — results the affine form cannot express.
    New = freshOrigin();
    break;
  }
  return New;
}
