//===- support/Statistics.cpp - Descriptive statistics -------------------===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"

#include <algorithm>
#include <cmath>

using namespace bsched;

double RunningStat::stddev() const { return std::sqrt(variance()); }

double bsched::mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

double bsched::stddev(const std::vector<double> &Values) {
  RunningStat S;
  for (double V : Values)
    S.add(V);
  return S.stddev();
}

double bsched::percentile(const std::vector<double> &SortedValues, double P) {
  if (SortedValues.empty())
    return 0.0;
  if (SortedValues.size() == 1)
    return SortedValues.front();
  P = std::clamp(P, 0.0, 1.0);
  double Rank = P * static_cast<double>(SortedValues.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, SortedValues.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return SortedValues[Lo] + (SortedValues[Hi] - SortedValues[Lo]) * Frac;
}
