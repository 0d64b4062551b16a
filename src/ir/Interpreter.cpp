//===- ir/Interpreter.cpp - Reference IR executor --------------------------=//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/Interpreter.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

using namespace bsched;

namespace {

/// SplitMix64 finalizer: deterministic "uninitialized" values.
uint64_t mixHash(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// Default value of a never-written register: a stable function of its
/// identity, bounded so address arithmetic stays in range.
int64_t defaultIntValue(Reg R) {
  return static_cast<int64_t>(mixHash(R.rawBits()) % 4096);
}

double defaultFpValue(Reg R) {
  return static_cast<double>(mixHash(R.rawBits() ^ 0xF00DULL) % 100000) *
         1e-3;
}

uint64_t rawOfDouble(double D) {
  uint64_t Raw;
  std::memcpy(&Raw, &D, sizeof(Raw));
  return Raw;
}

double doubleOfRaw(uint64_t Raw) {
  double D;
  std::memcpy(&D, &Raw, sizeof(D));
  return D;
}

/// Truncating double-to-int conversion with defined out-of-range behaviour.
int64_t safeFpToInt(double D) {
  if (!std::isfinite(D) || D >= 9.2e18 || D <= -9.2e18)
    return 0;
  return static_cast<int64_t>(D);
}

int64_t safeDiv(int64_t A, int64_t B) {
  if (B == 0)
    return 0;
  if (A == std::numeric_limits<int64_t>::min() && B == -1)
    return A; // Wraps to itself; the plain division would trap.
  return A / B;
}

int64_t safeRem(int64_t A, int64_t B) {
  if (B == 0)
    return 0;
  if (B == -1)
    return 0; // INT64_MIN % -1 traps despite the result being 0.
  return A % B;
}

} // namespace

bool bsched::isIntAluOpcode(Opcode Op) {
  // The two integer ALU groups open the Opcode enum: add through shli.
  return Op <= Opcode::ShlI;
}

int64_t bsched::evalIntAlu(Opcode Op, int64_t A, int64_t B) {
  // Two's-complement wrapping: fuzzed programs reach arbitrary register
  // values, so every signed operation must be defined on the full domain
  // (the harness runs under UBSan).
  const uint64_t UA = static_cast<uint64_t>(A);
  const uint64_t UB = static_cast<uint64_t>(B);
  switch (Op) {
  case Opcode::Add:
  case Opcode::AddI:
    return static_cast<int64_t>(UA + UB);
  case Opcode::Sub:
    return static_cast<int64_t>(UA - UB);
  case Opcode::Mul:
  case Opcode::MulI:
    return static_cast<int64_t>(UA * UB);
  case Opcode::Div:
    return safeDiv(A, B);
  case Opcode::Rem:
    return safeRem(A, B);
  case Opcode::And:
    return A & B;
  case Opcode::Or:
    return A | B;
  case Opcode::Xor:
    return A ^ B;
  case Opcode::Shl:
  case Opcode::ShlI:
    return static_cast<int64_t>(UA << (B & 63));
  case Opcode::Shr:
    return static_cast<int64_t>(UA >> (B & 63));
  case Opcode::Slt:
    return A < B ? 1 : 0;
  default:
    assert(false && "evalIntAlu on a non-ALU opcode");
    return 0;
  }
}

void Interpreter::setIntReg(Reg R, int64_t Value) {
  assert(R.isValid() && R.regClass() == RegClass::Int);
  Regs[R] = static_cast<uint64_t>(Value);
}

void Interpreter::setFpReg(Reg R, double Value) {
  assert(R.isValid() && R.regClass() == RegClass::Fp);
  Regs[R] = rawOfDouble(Value);
}

int64_t Interpreter::getIntReg(Reg R) const {
  assert(R.isValid() && R.regClass() == RegClass::Int);
  const uint64_t *Raw = Regs.find(R);
  return Raw ? static_cast<int64_t>(*Raw) : defaultIntValue(R);
}

double Interpreter::getFpReg(Reg R) const {
  assert(R.isValid() && R.regClass() == RegClass::Fp);
  const uint64_t *Raw = Regs.find(R);
  return Raw ? doubleOfRaw(*Raw) : defaultFpValue(R);
}

uint64_t Interpreter::loadRaw(AliasClassId Alias, int64_t Addr) const {
  auto It = Memory.find({Alias, Addr});
  if (It != Memory.end())
    return It->second;
  // Deterministic content for never-written cells.
  return mixHash(static_cast<uint64_t>(Alias) * 0x51ED2701ULL +
                 static_cast<uint64_t>(Addr));
}

void Interpreter::storeRaw(AliasClassId Alias, int64_t Addr, uint64_t Raw) {
  Memory[{Alias, Addr}] = Raw;
}

void Interpreter::run(const BasicBlock &BB) {
  for (const Instruction &I : BB) {
    if (I.isTerminator())
      break;
    step(I);
  }
}

int64_t Interpreter::effectiveAddress(const Instruction &I) const {
  return evalIntAlu(Opcode::AddI, getIntReg(I.addressBase()), I.imm());
}

void Interpreter::step(const Instruction &I) {
  if (I.isTerminator())
    return;
  ++ExecutedCount;

  auto SrcI = [&](unsigned Index) { return getIntReg(I.source(Index)); };
  auto SrcF = [&](unsigned Index) { return getFpReg(I.source(Index)); };
  auto DefI = [&](int64_t V) { setIntReg(I.dest(), V); };
  auto DefF = [&](double V) { setFpReg(I.dest(), V); };

  switch (I.opcode()) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Rem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Slt:
    DefI(evalIntAlu(I.opcode(), SrcI(0), SrcI(1)));
    break;
  case Opcode::AddI:
  case Opcode::MulI:
  case Opcode::ShlI:
    DefI(evalIntAlu(I.opcode(), SrcI(0), I.imm()));
    break;
  case Opcode::LoadImm:
    DefI(I.imm());
    break;
  case Opcode::Move:
    DefI(SrcI(0));
    break;
  case Opcode::FAdd:
    DefF(SrcF(0) + SrcF(1));
    break;
  case Opcode::FSub:
    DefF(SrcF(0) - SrcF(1));
    break;
  case Opcode::FMul:
    DefF(SrcF(0) * SrcF(1));
    break;
  case Opcode::FDiv:
    DefF(SrcF(1) == 0.0 ? 0.0 : SrcF(0) / SrcF(1));
    break;
  case Opcode::FNeg:
    DefF(-SrcF(0));
    break;
  case Opcode::FMove:
    DefF(SrcF(0));
    break;
  case Opcode::FLoadImm:
    DefF(I.fpImm());
    break;
  case Opcode::FMadd:
    DefF(SrcF(0) * SrcF(1) + SrcF(2));
    break;
  case Opcode::CvtIF:
    DefF(static_cast<double>(SrcI(0)));
    break;
  case Opcode::CvtFI:
    DefI(safeFpToInt(SrcF(0)));
    break;
  case Opcode::FSlt:
    DefI(SrcF(0) < SrcF(1) ? 1 : 0);
    break;
  case Opcode::Load:
    DefI(static_cast<int64_t>(loadRaw(I.aliasClass(), effectiveAddress(I))));
    break;
  case Opcode::FLoad:
    DefF(doubleOfRaw(loadRaw(I.aliasClass(), effectiveAddress(I))));
    break;
  case Opcode::Store:
    storeRaw(I.aliasClass(), effectiveAddress(I),
             static_cast<uint64_t>(SrcI(0)));
    break;
  case Opcode::FStore:
    storeRaw(I.aliasClass(), effectiveAddress(I), rawOfDouble(SrcF(0)));
    break;
  case Opcode::Nop:
    break;
  case Opcode::Jump:
  case Opcode::BranchZero:
  case Opcode::BranchNotZero:
  case Opcode::Ret:
    // Unreachable: the terminator check above returns first.
    break;
  }
}

Interpreter::MemoryImage Interpreter::memoryImage() const { return Memory; }

Interpreter::MemoryImage
Interpreter::memoryImageExcluding(AliasClassId Excluded) const {
  MemoryImage Image;
  for (const auto &[Key, Value] : Memory)
    if (Key.first != Excluded)
      Image.emplace(Key, Value);
  return Image;
}
