//===- ir/RegTable.cpp - Register-keyed tables without hashing ------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/RegTable.h"

#include <algorithm>

using namespace bsched;

namespace {

using WideEntry = std::pair<uint32_t, uint32_t>;

/// The first entry of \p List whose raw bits are not below \p Bits.
std::vector<WideEntry>::const_iterator
lowerBound(const std::vector<WideEntry> &List, uint32_t Bits) {
  return std::lower_bound(
      List.begin(), List.end(), Bits,
      [](const WideEntry &E, uint32_t Key) { return E.first < Key; });
}

} // namespace

RegIndex::RegIndex()
    : S(detail::ThreadFreeList<std::unique_ptr<Storage>>::take()) {
  if (!S)
    S = std::make_unique<Storage>();
}

RegIndex::~RegIndex() {
  // The flat table stays as it is: a slot counts only when it points back.
  S->Regs.clear();
  for (std::vector<WideEntry> &List : S->Wide)
    List.clear();
  detail::ThreadFreeList<std::unique_ptr<Storage>>::give(std::move(S));
}

uint32_t RegIndex::findWide(Reg R) const {
  const std::vector<WideEntry> &List = S->Wide[spaceOf(R)];
  auto It = lowerBound(List, R.rawBits());
  return It != List.end() && It->first == R.rawBits() ? It->second
                                                      : NotFound;
}

std::pair<uint32_t, bool> RegIndex::insertWide(Reg R) {
  std::vector<WideEntry> &List = S->Wide[spaceOf(R)];
  auto It = lowerBound(List, R.rawBits());
  if (It != List.end() && It->first == R.rawBits())
    return {It->second, false};
  const uint32_t Number = size();
  List.insert(It, {R.rawBits(), Number});
  S->Regs.push_back(R);
  return {Number, true};
}
