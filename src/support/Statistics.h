//===- support/Statistics.h - Descriptive statistics -----------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small descriptive-statistics helpers used by the simulator and the
/// bootstrap confidence-interval machinery (paper section 4.3): running
/// mean/variance (Welford), percentiles, and sample summaries.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SUPPORT_STATISTICS_H
#define BSCHED_SUPPORT_STATISTICS_H

#include <cstddef>
#include <vector>

namespace bsched {

/// Numerically stable running mean and variance (Welford's algorithm).
class RunningStat {
public:
  /// Folds one observation into the accumulator.
  void add(double X) {
    ++N;
    double Delta = X - Mean_;
    Mean_ += Delta / static_cast<double>(N);
    M2 += Delta * (X - Mean_);
  }

  /// Returns the number of observations folded in so far.
  size_t count() const { return N; }

  /// Returns the sample mean (0 if empty).
  double mean() const { return Mean_; }

  /// Returns the unbiased sample variance (0 if fewer than 2 samples).
  double variance() const {
    return N < 2 ? 0.0 : M2 / static_cast<double>(N - 1);
  }

  /// Returns the unbiased sample standard deviation.
  double stddev() const;

private:
  size_t N = 0;
  double Mean_ = 0.0;
  double M2 = 0.0;
};

/// Returns the arithmetic mean of \p Values (0 for an empty vector).
double mean(const std::vector<double> &Values);

/// Returns the unbiased sample standard deviation of \p Values.
double stddev(const std::vector<double> &Values);

/// Returns the \p P quantile of a sorted sample (the bootstrap's
/// improvements, the loadgen's latency arrays) by linear interpolation
/// between order statistics, without copying. An empty sample returns 0,
/// a single element returns itself, and \p P is clamped into [0, 1].
double percentile(const std::vector<double> &SortedValues, double P);

/// A two-sided interval [Lo, Hi], e.g. a bootstrap confidence interval.
struct Interval {
  double Lo = 0.0;
  double Hi = 0.0;

  /// Returns true if \p X lies within the closed interval.
  bool contains(double X) const { return Lo <= X && X <= Hi; }

  /// Returns the interval width.
  double width() const { return Hi - Lo; }
};

} // namespace bsched

#endif // BSCHED_SUPPORT_STATISTICS_H
