//===- dag/Reachability.cpp - Transitive closure ---------------------------=//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "dag/Reachability.h"

using namespace bsched;

const char *bsched::closureModeName(ClosureMode Mode) {
  switch (Mode) {
  case ClosureMode::Auto:
    return "auto";
  case ClosureMode::Materialized:
    return "materialized";
  case ClosureMode::Blocked:
    return "blocked";
  case ClosureMode::OnDemand:
    return "on-demand";
  }
  return "unknown";
}

bool bsched::parseClosureModeName(std::string_view Name, ClosureMode &Mode) {
  if (Name == "auto")
    Mode = ClosureMode::Auto;
  else if (Name == "materialized")
    Mode = ClosureMode::Materialized;
  else if (Name == "blocked")
    Mode = ClosureMode::Blocked;
  else if (Name == "on-demand")
    Mode = ClosureMode::OnDemand;
  else
    return false;
  return true;
}

void TransitiveClosure::compute(const DepDag &Dag, bool StorePreds) {
  N = Dag.size();
  WordsPerRow = (N + 63) / 64;
  HavePreds = StorePreds;
  SuccWords.assign(size_t(N) * WordsPerRow, 0);
  PredWords.assign(HavePreds ? size_t(N) * WordsPerRow : 0, 0);

  // Edges always point from lower to higher node index (program order is a
  // topological order), so one reverse sweep computes Succ* and one forward
  // sweep computes Pred*.
  for (unsigned I = N; I-- > 0;) {
    uint64_t *Row = SuccWords.data() + size_t(I) * WordsPerRow;
    for (const DepEdge &E : Dag.succs(I)) {
      Row[E.Other >> 6] |= uint64_t(1) << (E.Other & 63);
      const uint64_t *Other = succRow(E.Other);
      for (unsigned W = 0; W != WordsPerRow; ++W)
        Row[W] |= Other[W];
    }
  }
  if (!HavePreds)
    return;
  for (unsigned I = 0; I != N; ++I) {
    uint64_t *Row = PredWords.data() + size_t(I) * WordsPerRow;
    for (const DepEdge &E : Dag.preds(I)) {
      Row[E.Other >> 6] |= uint64_t(1) << (E.Other & 63);
      const uint64_t *Other = predRow(E.Other);
      for (unsigned W = 0; W != WordsPerRow; ++W)
        Row[W] |= Other[W];
    }
  }
}

BitVector TransitiveClosure::succsOf(unsigned Node) const {
  assert(Node < N && "closure query out of range");
  BitVector Result(N);
  const uint64_t *Row = succRow(Node);
  for (unsigned To = 0; To != N; ++To)
    if ((Row[To >> 6] >> (To & 63)) & 1)
      Result.set(To);
  return Result;
}

BitVector TransitiveClosure::predsOf(unsigned Node) const {
  assert(Node < N && "closure query out of range");
  BitVector Result(N);
  if (HavePreds) {
    const uint64_t *Row = predRow(Node);
    for (unsigned From = 0; From != N; ++From)
      if ((Row[From >> 6] >> (From & 63)) & 1)
        Result.set(From);
    return Result;
  }
  // Topological order: every predecessor has a lower index.
  for (unsigned From = 0; From != Node; ++From)
    if (reaches(From, Node))
      Result.set(From);
  return Result;
}

BitVector TransitiveClosure::independentOf(unsigned Node) const {
  BitVector Result;
  independentOf(Node, Result);
  return Result;
}

void TransitiveClosure::independentOf(unsigned Node, BitVector &Out) const {
  assert(Node < N && "closure query out of range");
  if (Out.size() != N)
    Out.resize(N);
  Out.setAll();
  Out.reset(Node);
  Out.andNotWords(succRow(Node), WordsPerRow);
  if (HavePreds) {
    Out.andNotWords(predRow(Node), WordsPerRow);
    return;
  }
  // Derive the Pred row from Succ columns: only indices below Node can be
  // predecessors (topological order), so one short scan replaces the
  // dropped matrix half.
  for (unsigned From = 0; From != Node; ++From)
    if (reaches(From, Node))
      Out.reset(From);
}
