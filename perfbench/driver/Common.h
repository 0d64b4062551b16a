//===- perfbench/driver/Common.h - Shared benchmark plumbing ---*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the run
/// options, the raw result a run hands to perfbench/run.py (which turns it
/// into the reported metrics), clocks, and small helpers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DRIVER_COMMON_H
#define PERFBENCH_DRIVER_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// One driver invocation: a workload, its input seed, the measured length,
/// and whether this is the traced run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string OutDir;    ///< Where raw.json and the sample files go.
  std::string ServerExe; ///< The bsched_server binary (serve workloads).
};

/// Daemon workers (serve-cold): one per vCPU of the 4-vCPU hosts the
/// benchmark was tuned on.
constexpr unsigned Concurrency = 4;

/// How many times each run repeats its set-up; setup_s is their median.
constexpr unsigned SetupRepeats = 5;

/// A named figure with its unit.
struct Figure {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// Everything a run measured, unsummarized: run.py computes medians and
/// percentiles from the samples (perfbench/benchstats.py) so those
/// statistics live, and are tested, in one place.
struct RunResult {
  std::vector<double> SetupS;    ///< Each set-up repetition.
  uint64_t Attempted = 0;        ///< Ops the run issued.
  uint64_t Failed = 0;           ///< Ops with a wrong or missing output.
  std::vector<std::string> Problems; ///< First few failure descriptions.
  std::vector<double> LatencyMs; ///< Per-op latency.
  std::vector<double> DoneS;     ///< Each op's completion, s since start.
  std::vector<double> RatePerS;  ///< Throughput per interval.
  double CodeGrowth = 0.0;       ///< Compiled / input static instructions.
  double PeakRssMib = 0.0;
  std::vector<Figure> Info;      ///< Workload-specific figures.
  /// fnv1a of the run's generated inputs, so results measured on different
  /// inputs are never compared as if they were the same workload.
  uint64_t InputDigest = 0;

  // Traced run only.
  std::vector<Figure> Layer;     ///< Per-layer counts and ratios.
  std::vector<double> UntracedOpMs; ///< Same ops, untraced, for overhead.
  std::vector<double> HandleMs;  ///< Daemon-reported wall_ms per request.
  std::vector<double> WaitMs;    ///< Round trip minus wall_ms.
  std::vector<std::string> SpanNames;

  /// Counts \p Ops failed ops and keeps their description (the first 20).
  void fail(std::string Why, uint64_t Ops = 1);

  /// Writes raw.json plus the binary sample files into \p Dir.
  bool write(const std::string &Dir) const;
};

/// Peak resident set size (VmHWM) of /proc/<Pid>, MiB; 0 if unreadable.
double peakRssMib(const std::string &Pid = "self");

/// 64-bit FNV-1a.
uint64_t fnv1a(std::string_view Text);

/// Hash of printed IR with its first line ("func @name {") dropped, so two
/// compilations that differ only in the function's name compare equal.
uint64_t bodyHash(std::string_view PrintedIr);

/// A seed-derived 64-bit value (splitmix64 finalizer).
uint64_t mixSeed(uint64_t Seed, uint64_t Salt);

RunResult runPaperTables(const Options &Opts);
RunResult runHugeCompile(const Options &Opts);
RunResult runServe(const Options &Opts, bool Warm);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_COMMON_H
