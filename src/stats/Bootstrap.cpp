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
  assert(Samples.size() <= UINT32_MAX && "sample too large to index");
  return bootstrapMeans(
      Samples, bootstrapIndices(static_cast<uint32_t>(Samples.size()),
                                NumResamples, R));
}

std::vector<uint32_t> bsched::bootstrapIndices(uint32_t NumSamples,
                                               unsigned NumResamples,
                                               Rng &R) {
  std::vector<uint32_t> Indices(size_t(NumResamples) * NumSamples);
  for (uint32_t &Index : Indices)
    Index = static_cast<uint32_t>(R.nextBounded(NumSamples));
  return Indices;
}

std::vector<double> bsched::bootstrapMeans(const std::vector<double> &Samples,
                                           std::span<const uint32_t> Indices) {
  assert(!Samples.empty() && "bootstrap of an empty sample");
  assert(Indices.size() % Samples.size() == 0 && "a whole number of draws");
  const size_t N = Samples.size();
  const size_t NumResamples = N == 0 ? 0 : Indices.size() / N;
  std::vector<double> Means;
  Means.reserve(NumResamples);
  for (size_t Resample = 0; Resample != NumResamples; ++Resample) {
    double Sum = 0.0;
    for (uint32_t Index : Indices.subspan(Resample * N, N))
      Sum += Samples[Index];
    Means.push_back(Sum / static_cast<double>(N));
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
