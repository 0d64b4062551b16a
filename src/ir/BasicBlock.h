//===- ir/BasicBlock.h - Straight-line instruction sequences ---*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A basic block: a named straight-line sequence of instructions with a
/// profiled execution frequency. Both schedulers in the paper operate
/// strictly basic block by basic block (section 2), and the simulator
/// weighs per-block runtimes by these frequencies (section 4.3).
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_IR_BASICBLOCK_H
#define BSCHED_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <cassert>
#include <cmath>
#include <string>
#include <vector>

namespace bsched {

/// The largest block frequency the front ends accept: far above any
/// profile count in the suite (5000), and small enough that frequency x
/// size stays finite in every report.
constexpr double MaxBlockFrequency = 1e12;

/// True for a frequency the front ends accept (they report BS204
/// otherwise): finite and at most MaxBlockFrequency.
inline bool isAcceptedBlockFrequency(double Freq) {
  return std::isfinite(Freq) && Freq <= MaxBlockFrequency;
}

/// A straight-line instruction sequence plus profile metadata.
class BasicBlock {
public:
  BasicBlock() = default;

  /// Creates an empty block named \p Name with execution frequency \p Freq.
  explicit BasicBlock(std::string Name, double Freq = 1.0)
      : Name(std::move(Name)), Freq(Freq) {}

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  /// Profiled execution count used to weight this block's simulated
  /// runtime when computing whole-program time.
  double frequency() const { return Freq; }
  void setFrequency(double F) { Freq = F; }

  /// Appends \p I; returns its index within the block.
  unsigned append(Instruction I) {
    assert((Instrs.empty() || !Instrs.back().isTerminator()) &&
           "appending past a terminator");
    Instrs.push_back(std::move(I));
    return static_cast<unsigned>(Instrs.size() - 1);
  }

  /// Replaces the whole instruction sequence (scheduler output).
  void setInstructions(std::vector<Instruction> NewInstrs) {
    Instrs = std::move(NewInstrs);
  }

  unsigned size() const { return static_cast<unsigned>(Instrs.size()); }
  bool empty() const { return Instrs.empty(); }

  const Instruction &operator[](unsigned Index) const {
    assert(Index < Instrs.size() && "instruction index out of range");
    return Instrs[Index];
  }
  Instruction &operator[](unsigned Index) {
    assert(Index < Instrs.size() && "instruction index out of range");
    return Instrs[Index];
  }

  const std::vector<Instruction> &instructions() const { return Instrs; }
  std::vector<Instruction> &instructions() { return Instrs; }

  auto begin() const { return Instrs.begin(); }
  auto end() const { return Instrs.end(); }
  auto begin() { return Instrs.begin(); }
  auto end() { return Instrs.end(); }

  /// Returns true if the block ends with a terminator instruction.
  bool hasTerminator() const {
    return !Instrs.empty() && Instrs.back().isTerminator();
  }

  /// Returns the number of instructions excluding a trailing terminator —
  /// the portion the scheduler may reorder.
  unsigned schedulableSize() const {
    return size() - (hasTerminator() ? 1 : 0);
  }

private:
  std::string Name;
  double Freq = 1.0;
  std::vector<Instruction> Instrs;
};

} // namespace bsched

#endif // BSCHED_IR_BASICBLOCK_H
