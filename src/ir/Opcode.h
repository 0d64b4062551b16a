//===- ir/Opcode.h - RISC-like opcode set ----------------------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction set of the bsched IR: a single-result, three-address,
/// MIPS-flavoured RISC core (paper section 4.1 targets the MIPS R-series).
/// Every opcode executes in one issue slot; loads have uncertain latency,
/// which is the entire subject of the paper.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_IR_OPCODE_H
#define BSCHED_IR_OPCODE_H

#include <cstdint>
#include <optional>
#include <string_view>

namespace bsched {

/// Opcodes of the bsched IR.
enum class Opcode : uint8_t {
  // Integer ALU (dst, src1, src2).
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  Slt, ///< Set dst to 1 if src1 < src2 (signed), else 0.

  // Integer ALU with immediate (dst, src1, imm).
  AddI,
  MulI,
  ShlI,

  // Integer data movement.
  LoadImm, ///< dst = imm.
  Move,    ///< dst = src1.

  // Floating point (dst, src1[, src2]).
  FAdd,
  FSub,
  FMul,
  FDiv,
  FNeg,
  FMove,
  FLoadImm, ///< dst = fpimm.
  FMadd,    ///< dst = src1 * src2 + src3 (fused; three sources).

  // Conversions / comparisons across register files.
  CvtIF, ///< fp dst = (double) int src1.
  CvtFI, ///< int dst = (int64) fp src1.
  FSlt,  ///< int dst = fp src1 < fp src2.

  // Memory. Loads/stores address [base + imm] within an alias class.
  Load,   ///< int dst = mem[src1 + imm].
  FLoad,  ///< fp dst = mem[src1 + imm].
  // No opcode from Store on defines a register (opcodeHasDest).
  Store,  ///< mem[src2 + imm] = int src1.
  FStore, ///< mem[src2 + imm] = fp src1.

  // Control flow (block terminators; never reordered).
  Jump,          ///< Unconditional branch; imm = target block index.
  BranchZero,    ///< Branch if int src1 == 0; imm = target block index.
  BranchNotZero, ///< Branch if int src1 != 0; imm = target block index.
  Ret,           ///< Function return.

  // A no-op. The list scheduler's virtual no-ops use this opcode before
  // they are stripped (the simulated processors use hardware interlocks).
  Nop,
};

/// Number of distinct opcodes (for dense tables).
constexpr unsigned NumOpcodes = static_cast<unsigned>(Opcode::Nop) + 1;

/// Returns the textual mnemonic ("fadd", "load", ...).
std::string_view opcodeName(Opcode Op);

/// Parses a mnemonic; returns std::nullopt for unknown names.
std::optional<Opcode> parseOpcode(std::string_view Name);

/// Returns true for Load/FLoad — the instructions with uncertain latency.
inline bool isLoadOpcode(Opcode Op) {
  return Op == Opcode::Load || Op == Opcode::FLoad;
}

/// Returns true for Store/FStore.
inline bool isStoreOpcode(Opcode Op) {
  return Op == Opcode::Store || Op == Opcode::FStore;
}

/// Returns true for any memory-touching opcode.
inline bool isMemoryOpcode(Opcode Op) {
  return isLoadOpcode(Op) || isStoreOpcode(Op);
}

/// Returns true for block terminators (Jump/BranchZero/BranchNotZero/Ret).
inline bool isTerminatorOpcode(Opcode Op) {
  return Op == Opcode::Jump || Op == Opcode::BranchZero ||
         Op == Opcode::BranchNotZero || Op == Opcode::Ret;
}

/// Returns true if the opcode defines a register: every opcode listed
/// before Store does, and none from Store on.
inline bool opcodeHasDest(Opcode Op) { return Op < Opcode::Store; }

/// Returns true if the destination register is floating point.
bool opcodeDestIsFp(Opcode Op);

/// Returns the number of register sources the opcode reads (0-3).
unsigned opcodeNumSrcs(Opcode Op);

/// Returns true if source operand \p Index (0-based) is floating point.
bool opcodeSrcIsFp(Opcode Op, unsigned Index);

/// Returns true if the opcode carries an integer immediate.
bool opcodeHasImm(Opcode Op);

/// Returns true if the opcode carries a floating-point immediate.
bool opcodeHasFpImm(Opcode Op);

} // namespace bsched

#endif // BSCHED_IR_OPCODE_H
