//===- stats/Bootstrap.h - Bootstrap resampling ----------------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's statistical methodology (section 4.3): each block is
/// simulated 30 times; from those samples 100 bootstrap sample means are
/// drawn (resampling with replacement); block means are scaled by profiled
/// frequency and summed into 100 program runtimes; improvements are
/// computed pairwise and a 95% confidence interval is read off the sorted
/// pairs.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_STATS_BOOTSTRAP_H
#define BSCHED_STATS_BOOTSTRAP_H

#include "support/Rng.h"
#include "support/Statistics.h"

#include <cstdint>
#include <span>
#include <vector>

namespace bsched {

/// Draws \p NumResamples bootstrap means from \p Samples: each mean
/// averages |Samples| draws with replacement. The same as summing over
/// bootstrapIndices(|Samples|, NumResamples, R).
std::vector<double> bootstrapMeans(const std::vector<double> &Samples,
                                   unsigned NumResamples, Rng &R);

/// The resampling alone: \p NumResamples x \p NumSamples indices, each
/// uniform in [0, NumSamples), in draw order. It depends on the sample's
/// size only, never its values, so one sequence serves every sample of
/// that size drawn from the same stream.
std::vector<uint32_t> bootstrapIndices(uint32_t NumSamples,
                                       unsigned NumResamples, Rng &R);

/// The bootstrap means of \p Samples over drawn \p Indices (a multiple
/// of |Samples| long): mean I averages the Samples at Indices[I * |Samples|
/// ..  (I + 1) * |Samples|), summed in that order.
std::vector<double> bootstrapMeans(const std::vector<double> &Samples,
                                   std::span<const uint32_t> Indices);

/// A paired percentage-improvement estimate with its 95% CI.
struct ImprovementEstimate {
  double MeanPercent = 0.0; ///< Mean of the paired improvements.
  Interval Ci95;            ///< 2.5th..97.5th percentile of the pairs.

  /// True if the CI excludes zero (the improvement is significant).
  bool significant() const { return !Ci95.contains(0.0); }
};

/// Pairs \p Baseline with \p Candidate runtimes index-wise and computes
/// percentage improvement (Baseline - Candidate) / Baseline * 100 per
/// pair; positive values mean the candidate is faster. Both vectors must
/// be the same length (the paper pairs 100 bootstrap means).
ImprovementEstimate pairedImprovement(const std::vector<double> &Baseline,
                                      const std::vector<double> &Candidate);

} // namespace bsched

#endif // BSCHED_STATS_BOOTSTRAP_H
