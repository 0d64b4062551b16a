//===- obs/FlightRecorder.h - Per-thread event ring buffers ----*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-mortem half of the observability layer (DESIGN.md §3l): a
/// fixed-capacity ring buffer of recent log events, kept per
/// thread so recording never contends across workers. The rings hold the
/// last ~N events each; when something goes wrong — a governor hard-fail
/// (BS802), an armed fail point (BS810), a pool-fault backstop (BS811),
/// or a graceful shutdown — `dumpJson()` merges every ring into one
/// time-sorted JSON document naming what the process was doing.
///
/// Recording is a short critical section on the calling thread's own
/// ring (uncontended in steady state); dumping locks each ring briefly
/// and is cold by definition. Capacity is fixed at construction and old
/// events are overwritten, so memory is bounded no matter how long the
/// service runs.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_OBS_FLIGHTRECORDER_H
#define BSCHED_OBS_FLIGHTRECORDER_H

#include "obs/Log.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bsched {

/// The process-wide dense thread index shared by the telemetry layer: the
/// `tid` of log events, flight-recorder rings and trace spans, and the
/// shard a thread records into. Stable for the thread's lifetime.
uint32_t obsThreadIndex();

/// One captured log event. `FieldsJson` is a pre-rendered JSON object of
/// the log fields, or empty.
struct FlightEvent {
  uint64_t TsUs = 0; ///< Microseconds since the recorder's epoch.
  uint32_t Tid = 0;  ///< Process-wide thread index.
  LogLevel Level = LogLevel::Info;
  std::string Component;
  std::string Message;
  std::string FieldsJson;
};

/// The recorder: one bounded ring per recording thread. Thread-safe
/// throughout.
class FlightRecorder {
public:
  static constexpr size_t DefaultPerThreadCapacity = 256;

  explicit FlightRecorder(size_t PerThreadCapacity = DefaultPerThreadCapacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder &) = delete;
  FlightRecorder &operator=(const FlightRecorder &) = delete;

  /// The process-wide recorder `Logger::global()` feeds.
  static FlightRecorder &global();

  size_t perThreadCapacity() const { return Capacity; }

  /// Microseconds since the recorder was constructed.
  uint64_t nowUs() const;

  /// Appends \p Event to the calling thread's ring, overwriting the
  /// oldest entry when full. TsUs/Tid are filled in when zero.
  void record(FlightEvent Event);

  /// Every buffered event across all rings, sorted by timestamp.
  std::vector<FlightEvent> events() const;

  /// The dump document:
  /// {"flight_recorder":{"trigger":"BS810","events":[{"ts_us":..,
  ///  "tid":..,"level":"error","kind":"log","component":..,"msg":..,
  ///  "fields":{..}},...]}}.
  std::string dumpJson(std::string_view Trigger) const;

  /// Empties every ring (tests and between-run hygiene).
  void clear();

private:
  struct Ring;
  Ring &threadRing();

  size_t Capacity;
  uint64_t InstanceId; ///< Distinguishes recorders in thread-local caches.
  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex RingsMutex;
  std::vector<std::unique_ptr<Ring>> Rings;
};

} // namespace bsched

#endif // BSCHED_OBS_FLIGHTRECORDER_H
