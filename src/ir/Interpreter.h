//===- ir/Interpreter.h - Reference IR executor ----------------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reference interpreter for straight-line blocks. It exists to *prove*
/// that the schedulers and the register allocator preserve semantics: tests
/// execute a block before and after a transformation and compare the final
/// memory image (and, where register names survive, register values).
///
/// Uninitialized registers and memory read deterministic values derived
/// from their identity, so random programs have fully defined behaviour
/// and comparisons are meaningful.
///
/// The interpreter's integer arithmetic is exported as one ALU
/// (isIntAluOpcode / evalIntAlu): the address analysis and the
/// memory-dependence certifier fold constants through it, so "what the
/// interpreter computes" has a single definition.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_IR_INTERPRETER_H
#define BSCHED_IR_INTERPRETER_H

#include "ir/BasicBlock.h"
#include "ir/RegTable.h"

#include <cstdint>
#include <map>

namespace bsched {

/// True for the integer opcodes evalIntAlu evaluates: add, sub, mul, div,
/// rem, and, or, xor, shl, shr, slt, addi, muli and shli.
bool isIntAluOpcode(Opcode Op);

/// The value integer ALU opcode \p Op (isIntAluOpcode) computes from
/// \p A and \p B, where \p B is the second source or, for addi, muli and
/// shli, the immediate. Every result is defined on the full domain:
/// add/sub/mul and shl wrap mod 2^64, shift counts are taken mod 64, shr is
/// logical, slt compares signed, division and remainder by zero are 0,
/// INT64_MIN / -1 is INT64_MIN and INT64_MIN % -1 is 0.
int64_t evalIntAlu(Opcode Op, int64_t A, int64_t B);

/// Machine state (register files + byte-less word memory) plus an executor.
class Interpreter {
public:
  Interpreter() = default;

  /// Sets an integer register (live-in seeding).
  void setIntReg(Reg R, int64_t Value);

  /// Sets a floating-point register (live-in seeding).
  void setFpReg(Reg R, double Value);

  /// Reads an integer register (deterministic default when never written).
  int64_t getIntReg(Reg R) const;

  /// Reads a floating-point register (deterministic default when never
  /// written).
  double getFpReg(Reg R) const;

  /// Executes \p BB from the first instruction up to (and excluding) any
  /// terminator. Branches are not followed — blocks are executed in
  /// isolation, exactly as the schedulers treat them.
  void run(const BasicBlock &BB);

  /// Executes the single instruction \p I; a terminator does nothing.
  void step(const Instruction &I);

  /// Effective address `base + imm` of memory instruction \p I under the
  /// current register state.
  int64_t effectiveAddress(const Instruction &I) const;

  /// Final memory image, restricted to alias classes for which
  /// \p IncludeClass returns true. Keys are (alias class, address); ordered
  /// so images compare deterministically.
  using MemoryImage = std::map<std::pair<AliasClassId, int64_t>, uint64_t>;

  /// Returns the full memory image.
  MemoryImage memoryImage() const;

  /// Returns the memory image excluding alias class \p Excluded (used to
  /// ignore the register allocator's spill slots when comparing semantics).
  MemoryImage memoryImageExcluding(AliasClassId Excluded) const;

  /// Number of instructions executed by all \c run calls so far.
  uint64_t instructionsExecuted() const { return ExecutedCount; }

private:
  uint64_t loadRaw(AliasClassId Alias, int64_t Addr) const;
  void storeRaw(AliasClassId Alias, int64_t Addr, uint64_t Raw);

  /// Written registers: an integer register's value, or the bits of a
  /// floating-point register's double.
  RegMap<uint64_t> Regs;
  MemoryImage Memory;
  uint64_t ExecutedCount = 0;
};

} // namespace bsched

#endif // BSCHED_IR_INTERPRETER_H
