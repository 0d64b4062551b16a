//===- ir/Reg.h - Register operands ----------------------------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact value type for register operands. Registers are either virtual
/// (pre-register-allocation, unbounded) or physical (post-allocation,
/// limited by the target description), and belong to the integer or
/// floating-point register file.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_IR_REG_H
#define BSCHED_IR_REG_H

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>

namespace bsched {

/// The two register files of the target (MIPS-style split int/fp files).
enum class RegClass : uint8_t { Int, Fp };

/// A register operand: invalid, virtual, or physical; int or fp.
///
/// Encoded in 32 bits so instructions stay small: bit 31 = valid,
/// bit 30 = physical, bit 29 = fp, bits 0-28 = register number.
class Reg {
public:
  /// Constructs the invalid register (no operand).
  Reg() = default;

  /// The largest register number the 29-bit encoding holds (2^29 - 1).
  static constexpr unsigned MaxId = (1u << 29) - 1;

  /// Creates virtual register number \p Id in class \p RC.
  static Reg makeVirtual(RegClass RC, unsigned Id) {
    return Reg(encode(/*Physical=*/false, RC, Id));
  }

  /// Creates physical register number \p Id in class \p RC.
  static Reg makePhysical(RegClass RC, unsigned Id) {
    return Reg(encode(/*Physical=*/true, RC, Id));
  }

  /// Returns true unless this is the default-constructed invalid register.
  bool isValid() const { return Bits & ValidBit; }

  /// Returns true for a virtual (pre-RA) register.
  bool isVirtual() const { return isValid() && !(Bits & PhysicalBit); }

  /// Returns true for a physical (post-RA) register.
  bool isPhysical() const { return isValid() && (Bits & PhysicalBit); }

  /// Returns the register file this register belongs to.
  RegClass regClass() const {
    assert(isValid() && "class of invalid register");
    return (Bits & FpBit) ? RegClass::Fp : RegClass::Int;
  }

  /// Returns the register number within its (virtual|physical, class) space.
  unsigned id() const {
    assert(isValid() && "id of invalid register");
    return Bits & IdMask;
  }

  /// Renders "%i3" / "%f0" for virtuals, "$i3" / "$f0" for physicals.
  std::string str() const {
    if (!isValid())
      return "<invalid>";
    std::string S(1, isPhysical() ? '$' : '%');
    S += regClass() == RegClass::Fp ? 'f' : 'i';
    S += std::to_string(id());
    return S;
  }

  friend bool operator==(Reg A, Reg B) { return A.Bits == B.Bits; }
  friend bool operator!=(Reg A, Reg B) { return A.Bits != B.Bits; }
  friend bool operator<(Reg A, Reg B) { return A.Bits < B.Bits; }

  /// Returns the raw encoding (stable hash/dense-map key).
  uint32_t rawBits() const { return Bits; }

  /// Rebuilds a register from rawBits() output (dense-map keys back to
  /// operands; analysis code round-trips sets of registers this way).
  static Reg fromRawBits(uint32_t Bits) { return Reg(Bits); }

private:
  explicit Reg(uint32_t Bits) : Bits(Bits) {}

  static constexpr uint32_t ValidBit = 1u << 31;
  static constexpr uint32_t PhysicalBit = 1u << 30;
  static constexpr uint32_t FpBit = 1u << 29;
  static constexpr uint32_t IdMask = FpBit - 1;
  static_assert(MaxId == IdMask, "MaxId must match the encoding");

  static uint32_t encode(bool Physical, RegClass RC, unsigned Id) {
    assert(Id <= MaxId && "register number too large");
    uint32_t Bits = ValidBit | Id;
    if (Physical)
      Bits |= PhysicalBit;
    if (RC == RegClass::Fp)
      Bits |= FpBit;
    return Bits;
  }

  uint32_t Bits = 0;
};

} // namespace bsched

namespace std {
template <> struct hash<bsched::Reg> {
  size_t operator()(bsched::Reg R) const noexcept {
    return std::hash<uint32_t>()(R.rawBits());
  }
};
} // namespace std

#endif // BSCHED_IR_REG_H
