//===- ir/RegTable.h - Register-keyed tables without hashing ---*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RegIndex numbers the registers a kernel meets densely, in the order it
/// first inserts them; RegMap<T> keeps one T per register on top of it.
/// The DAG builder, the address analysis, the memory-dependence and
/// allocation certifiers, the interpreter, the allocator and renaming keep
/// their per-register state in these, and the simulator numbers a block's
/// registers with one (DecodedBlock::decode). The allocator's set of
/// resident values stays a hash set: its iteration order breaks eviction
/// ties, so it shapes the compiled code.
///
/// A register with an id below DirectIds is found through a flat table
/// indexed by (physical, fp, id): every physical register of a validated
/// target (BS500 caps a class at 1024) and the virtual registers of
/// ordinary blocks. The table is a sparse set: a register's slot holds its
/// number, which counts only when it points back at the register, so the
/// table is never cleared. Any other register (a virtual id of 1024 or
/// more, or the invalid register) is found by binary search in a list kept
/// sorted per (physical, fp) space; a block defines virtual registers in
/// rising id order, so those lists mostly grow at their end.
///
/// Storage is reused, never shared. An index takes its storage (the flat
/// table, the number-to-register list, the sorted lists) from a free list
/// of the thread that builds it and hands it back, cleared, when it is
/// destroyed; a RegMap does the same with its value vector. A kernel that
/// builds its tables per block therefore allocates, and zeroes a flat
/// table, only when its thread needs more live tables at once than it ever
/// did (a compile holds at most three). A table belongs to one thread at a
/// time, as any container does: concurrent block compiles each build
/// their own.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_IR_REGTABLE_H
#define BSCHED_IR_REGTABLE_H

#include "ir/Reg.h"

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace bsched {

namespace detail {

/// Objects this thread's tables have finished with, kept for the next
/// table the thread builds.
template <typename S> class ThreadFreeList {
public:
  /// A kept object, or a default-constructed one when none is kept.
  static S take() {
    if (gone())
      return S();
    std::vector<S> &Items = list().Items;
    if (Items.empty())
      return S();
    S Item = std::move(Items.back());
    Items.pop_back();
    return Item;
  }

  /// Keeps \p Item for a later take(). Once the thread's list is destroyed
  /// (a table outliving its thread's thread-local objects), \p Item stays
  /// with the caller.
  static void give(S &&Item) noexcept {
    if (gone())
      return;
    try {
      list().Items.push_back(std::move(Item));
    } catch (...) {
      // Out of memory: the caller frees Item instead.
    }
  }

private:
  struct List {
    std::vector<S> Items;
    ~List() { gone() = true; }
  };
  static List &list() {
    thread_local List L;
    return L;
  }
  static bool &gone() {
    thread_local bool Gone = false;
    return Gone;
  }
};

} // namespace detail

/// Dense numbers 0, 1, 2, ... for registers, in first-insertion order.
class RegIndex {
public:
  /// What find() returns for a register the index does not hold.
  static constexpr uint32_t NotFound = ~uint32_t(0);

  /// Registers with an id below this (and valid) use the flat table.
  static constexpr unsigned DirectIds = 1024;

  RegIndex();
  ~RegIndex();
  RegIndex(const RegIndex &) = delete;
  RegIndex &operator=(const RegIndex &) = delete;

  /// The number of \p R, or NotFound.
  uint32_t find(Reg R) const {
    if (!isDirect(R))
      return findWide(R);
    const uint32_t Number = S->Slots[directKey(R)];
    return Number < S->Regs.size() && S->Regs[Number] == R ? Number
                                                           : NotFound;
  }

  /// The number of \p R, giving it the next number first if it has none;
  /// the second member says whether it did.
  std::pair<uint32_t, bool> insert(Reg R) {
    if (!isDirect(R))
      return insertWide(R);
    uint32_t &Slot = S->Slots[directKey(R)];
    if (Slot < S->Regs.size() && S->Regs[Slot] == R)
      return {Slot, false};
    Slot = size();
    S->Regs.push_back(R);
    return {Slot, true};
  }

  /// How many registers have numbers.
  uint32_t size() const { return static_cast<uint32_t>(S->Regs.size()); }

private:
  static constexpr unsigned NumSpaces = 4; ///< (physical, fp) pairs.

  /// Which of the four (physical, fp) spaces \p R is in; the invalid
  /// register is in space 0.
  static unsigned spaceOf(Reg R) {
    return R.isValid() ? (R.isPhysical() ? 2u : 0u) +
                             (R.regClass() == RegClass::Fp ? 1u : 0u)
                       : 0u;
  }
  static bool isDirect(Reg R) { return R.isValid() && R.id() < DirectIds; }
  static unsigned directKey(Reg R) { return spaceOf(R) * DirectIds + R.id(); }

  uint32_t findWide(Reg R) const;
  std::pair<uint32_t, bool> insertWide(Reg R);

  struct Storage {
    /// The flat table: a direct register's number, valid only when
    /// Regs[number] is that register. Zeroed once, when allocated.
    std::array<uint32_t, NumSpaces * DirectIds> Slots{};
    /// Number -> register.
    std::vector<Reg> Regs;
    /// (raw bits, number) of every other register, sorted by raw bits,
    /// one list per space.
    std::array<std::vector<std::pair<uint32_t, uint32_t>>, NumSpaces> Wide;
  };
  std::unique_ptr<Storage> S;
};

/// One T per register, over a RegIndex. A value is value-initialised when
/// its register is first inserted. Inserting may move every value, so a
/// reference or pointer into the map lasts only until the next insertion.
template <typename T> class RegMap {
public:
  RegMap() : Values(detail::ThreadFreeList<std::vector<T>>::take()) {}
  ~RegMap() {
    Values.clear();
    detail::ThreadFreeList<std::vector<T>>::give(std::move(Values));
  }
  RegMap(const RegMap &) = delete;
  RegMap &operator=(const RegMap &) = delete;

  /// The value of \p R, or null when \p R has none.
  T *find(Reg R) {
    const uint32_t Number = Index.find(R);
    return Number == RegIndex::NotFound ? nullptr : &Values[Number];
  }
  const T *find(Reg R) const {
    const uint32_t Number = Index.find(R);
    return Number == RegIndex::NotFound ? nullptr : &Values[Number];
  }

  /// The value of \p R, inserted first if \p R has none; the second
  /// member says whether it was.
  std::pair<T &, bool> tryEmplace(Reg R) {
    auto [Number, Inserted] = Index.insert(R);
    if (Inserted)
      Values.emplace_back();
    return {Values[Number], Inserted};
  }

  /// The value of \p R, inserted first if \p R has none.
  T &operator[](Reg R) { return tryEmplace(R).first; }

  /// How many registers have values; value(N) is the value of the N-th
  /// register inserted.
  uint32_t size() const { return Index.size(); }
  T &value(uint32_t Number) { return Values[Number]; }
  const T &value(uint32_t Number) const { return Values[Number]; }

private:
  RegIndex Index;
  std::vector<T> Values;
};

} // namespace bsched

#endif // BSCHED_IR_REGTABLE_H
