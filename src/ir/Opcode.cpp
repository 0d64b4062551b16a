//===- ir/Opcode.cpp - RISC-like opcode set -------------------------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/Opcode.h"

#include <cassert>

using namespace bsched;

namespace {

/// Static per-opcode properties, indexed by Opcode.
struct OpcodeInfo {
  std::string_view Name;
  uint8_t NumSrcs;
  bool DestFp;
  // Bit I set => source I is floating point.
  uint8_t SrcFpMask;
  bool HasImm;
  bool HasFpImm;
};

constexpr OpcodeInfo Infos[NumOpcodes] = {
    // Name     #Src DFp   SrcFp Imm    FpImm
    {"add", 2, false, 0b000, false, false},
    {"sub", 2, false, 0b000, false, false},
    {"mul", 2, false, 0b000, false, false},
    {"div", 2, false, 0b000, false, false},
    {"rem", 2, false, 0b000, false, false},
    {"and", 2, false, 0b000, false, false},
    {"or", 2, false, 0b000, false, false},
    {"xor", 2, false, 0b000, false, false},
    {"shl", 2, false, 0b000, false, false},
    {"shr", 2, false, 0b000, false, false},
    {"slt", 2, false, 0b000, false, false},
    {"addi", 1, false, 0b000, true, false},
    {"muli", 1, false, 0b000, true, false},
    {"shli", 1, false, 0b000, true, false},
    {"li", 0, false, 0b000, true, false},
    {"mov", 1, false, 0b000, false, false},
    {"fadd", 2, true, 0b011, false, false},
    {"fsub", 2, true, 0b011, false, false},
    {"fmul", 2, true, 0b011, false, false},
    {"fdiv", 2, true, 0b011, false, false},
    {"fneg", 1, true, 0b001, false, false},
    {"fmov", 1, true, 0b001, false, false},
    {"fli", 0, true, 0b000, false, true},
    {"fmadd", 3, true, 0b111, false, false},
    {"cvtif", 1, true, 0b000, false, false},
    {"cvtfi", 1, false, 0b001, false, false},
    {"fslt", 2, false, 0b011, false, false},
    {"load", 1, false, 0b000, true, false},
    {"fload", 1, true, 0b000, true, false},
    {"store", 2, false, 0b000, true, false},
    {"fstore", 2, false, 0b001, true, false},
    {"jump", 0, false, 0b000, true, false},
    {"bz", 1, false, 0b000, true, false},
    {"bnz", 1, false, 0b000, true, false},
    {"ret", 0, false, 0b000, false, false},
    {"nop", 0, false, 0b000, false, false},
};

const OpcodeInfo &infoOf(Opcode Op) {
  unsigned Index = static_cast<unsigned>(Op);
  assert(Index < NumOpcodes && "invalid opcode");
  return Infos[Index];
}

} // namespace

std::string_view bsched::opcodeName(Opcode Op) { return infoOf(Op).Name; }

std::optional<Opcode> bsched::parseOpcode(std::string_view Name) {
  for (unsigned I = 0; I != NumOpcodes; ++I)
    if (Infos[I].Name == Name)
      return static_cast<Opcode>(I);
  return std::nullopt;
}

bool bsched::opcodeDestIsFp(Opcode Op) { return infoOf(Op).DestFp; }

unsigned bsched::opcodeNumSrcs(Opcode Op) { return infoOf(Op).NumSrcs; }

bool bsched::opcodeSrcIsFp(Opcode Op, unsigned Index) {
  assert(Index < infoOf(Op).NumSrcs && "source index out of range");
  return (infoOf(Op).SrcFpMask >> Index) & 1;
}

bool bsched::opcodeHasImm(Opcode Op) { return infoOf(Op).HasImm; }

bool bsched::opcodeHasFpImm(Opcode Op) { return infoOf(Op).HasFpImm; }
