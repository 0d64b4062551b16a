//===- regalloc/TargetRegisters.h - Register file description --*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Description of the target's register files. The paper compiles for the
/// MIPS R-series: split integer/floating register files, a handful of
/// registers reserved by convention, and — following GCC's allocator — a
/// small dedicated pool of *spill registers* used by reload code. The
/// paper enlarges that pool by two and orders it as a FIFO queue
/// (section 4.1); both knobs are modeled here.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_REGALLOC_TARGETREGISTERS_H
#define BSCHED_REGALLOC_TARGETREGISTERS_H

#include "ir/Reg.h"

#include "support/Check.h"

#include <cassert>
#include <cstdint>

namespace bsched {

/// Register-file sizes and spill-pool configuration.
///
/// Physical register numbering within each class:
///   [0, generalRegs)                        — general allocation
///   [generalRegs, generalRegs + SpillPool)  — dedicated reload pool
///   generalRegs + SpillPool (int class)     — frame pointer (spill base)
struct TargetDescription {
  /// Allocatable integer registers (MIPS: 32 minus ABI-reserved).
  unsigned NumIntRegs = 26;

  /// Allocatable floating-point registers (MIPS: 16 double-precision).
  unsigned NumFpRegs = 16;

  /// Dedicated spill-reload registers per class. GCC's default pool is
  /// small (2); the paper adds two more (4) and rotates FIFO.
  unsigned SpillPoolSize = 4;

  /// If true, reload registers rotate FIFO (the paper's improvement);
  /// if false, the lowest-numbered pool register is always reused first,
  /// reproducing GCC's serializing behaviour.
  bool FifoSpillPool = true;

  /// General-purpose (non-pool) register count for \p RC. The integer
  /// class additionally reserves one register as the spill-area base.
  unsigned generalRegs(RegClass RC) const {
    unsigned Total = RC == RegClass::Fp ? NumFpRegs : NumIntRegs;
    uint64_t Reserved =
        uint64_t(SpillPoolSize) + (RC == RegClass::Int ? 1 : 0);
    BSCHED_CHECK(Total > Reserved + 2, "register file too small for the pool");
    return Total - static_cast<unsigned>(Reserved);
  }

  /// The I-th spill-pool register of class \p RC.
  Reg spillPoolReg(RegClass RC, unsigned I) const {
    assert(I < SpillPoolSize && "spill pool index out of range");
    return Reg::makePhysical(RC, generalRegs(RC) + I);
  }

  /// The reserved frame-pointer register (integer class) used as the base
  /// address of the spill area.
  Reg framePointer() const {
    return Reg::makePhysical(RegClass::Int,
                             generalRegs(RegClass::Int) + SpillPoolSize);
  }
};

} // namespace bsched

#endif // BSCHED_REGALLOC_TARGETREGISTERS_H
