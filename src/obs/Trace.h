//===- obs/Trace.h - Phase tracing (Chrome trace events) -------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The span half of the observability layer (DESIGN.md §3g): an RAII
/// `ScopedSpan` records how long a pipeline phase took (parse → dag →
/// schedule → regalloc → certify → sim) into a thread-safe
/// `TraceRecorder`, which exports Chrome trace-event JSON. Load the file
/// at https://ui.perfetto.dev (or chrome://tracing) to see per-kernel
/// phase timelines across engine workers.
///
/// Spans nest strictly per thread: a `ScopedSpan` closes in destructor
/// order, so on any one thread the recorded intervals form a proper
/// containment forest — the property `tests/ObsTest.cpp` pins.
///
/// Recording takes one `steady_clock` read at each end of the span plus a
/// short critical section on one of the recorder's sharded buffers;
/// export (`toJson`, `writeFile`, `topPhases`) is cold.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_OBS_TRACE_H
#define BSCHED_OBS_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace bsched {

/// One completed span, in microseconds since the recorder's epoch.
/// Chrome trace-event fields: ph="X" (complete event), pid=0, tid=Tid.
struct TraceEvent {
  std::string Name;      ///< Span name, e.g. "sched" or "kernel:smooth".
  const char *Cat = "";  ///< Category (static string), e.g. "phase".
  uint32_t Tid = 0;      ///< obsThreadIndex() of the recording thread.
  uint64_t TsUs = 0;     ///< Start, microseconds since recorder epoch.
  uint64_t DurUs = 0;    ///< Duration in microseconds.
  std::string Args;      ///< Optional JSON object for "args", or empty.
};

/// Aggregated wall time for one span name (see topPhases()).
struct PhaseTotal {
  std::string Name;
  uint64_t TotalUs = 0;
  uint64_t Count = 0;
};

/// Collects spans from any number of threads and exports Chrome
/// trace-event JSON. Thread-safe; one recorder is typically shared by a
/// whole engine run.
class TraceRecorder {
public:
  TraceRecorder();
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder &) = delete;
  TraceRecorder &operator=(const TraceRecorder &) = delete;

  /// Records a completed span. Called by ScopedSpan; public so callers
  /// with externally measured intervals can inject events.
  void record(TraceEvent Event);

  /// Microseconds elapsed since the recorder was constructed.
  uint64_t nowUs() const;

  /// All recorded events, sorted by (start, longest-first, tid, name) so
  /// parents order before the children they contain.
  std::vector<TraceEvent> events() const;

  /// The full Chrome trace document:
  /// {"traceEvents":[{"name":..,"ph":"X","ts":..,"dur":..},...],
  ///  "displayTimeUnit":"ms"}.
  std::string toJson() const;

  /// Writes toJson() to \p Path. Returns false and fills \p Error on
  /// I/O failure.
  bool writeFile(const std::string &Path, std::string *Error = nullptr) const;

  /// Span names ranked by total wall time (descending), at most \p N.
  std::vector<PhaseTotal> topPhases(size_t N) const;

private:
  static constexpr unsigned NumShards = 16;
  struct Shard {
    mutable std::mutex Mutex;
    std::vector<TraceEvent> Events;
  };
  Shard Shards[NumShards];
  std::chrono::steady_clock::time_point Epoch;
};

/// RAII span: records [construction, destruction) on the calling thread
/// under \p Name. A null recorder makes it free.
class ScopedSpan {
public:
  ScopedSpan(TraceRecorder *Recorder, std::string Name,
             const char *Cat = "phase", std::string ArgsJson = std::string());
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  TraceRecorder *Recorder = nullptr;
  std::string Name;
  const char *Cat = "";
  std::string Args;
  uint64_t StartUs = 0;
};

} // namespace bsched

#endif // BSCHED_OBS_TRACE_H
