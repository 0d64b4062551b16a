//===- stats/Bootstrap.cpp - Bootstrap resampling ----------------------------/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "stats/Bootstrap.h"

#include <algorithm>
#include <cassert>

using namespace bsched;

std::vector<double> bsched::bootstrapMeans(const std::vector<double> &Samples,
                                           unsigned NumResamples, Rng &R) {
  assert(!Samples.empty() && "bootstrap of an empty sample");
  std::vector<double> Means;
  Means.reserve(NumResamples);
  for (unsigned Resample = 0; Resample != NumResamples; ++Resample) {
    double Sum = 0.0;
    for (size_t Draw = 0; Draw != Samples.size(); ++Draw)
      Sum += Samples[R.nextBounded(Samples.size())];
    Means.push_back(Sum / static_cast<double>(Samples.size()));
  }
  return Means;
}

ImprovementEstimate
bsched::pairedImprovement(const std::vector<double> &Baseline,
                          const std::vector<double> &Candidate) {
  assert(Baseline.size() == Candidate.size() &&
         "paired samples must have equal length");
  assert(!Baseline.empty() && "paired improvement of empty samples");

  std::vector<double> Improvements;
  Improvements.reserve(Baseline.size());
  for (size_t I = 0; I != Baseline.size(); ++I) {
    assert(Baseline[I] > 0.0 && "non-positive runtime");
    Improvements.push_back(100.0 * (Baseline[I] - Candidate[I]) /
                           Baseline[I]);
  }

  ImprovementEstimate Estimate;
  // The mean sums in draw order, so it is taken before the sort.
  Estimate.MeanPercent = mean(Improvements);
  std::sort(Improvements.begin(), Improvements.end());
  Estimate.Ci95.Lo = percentile(Improvements, 0.025);
  Estimate.Ci95.Hi = percentile(Improvements, 0.975);
  return Estimate;
}
