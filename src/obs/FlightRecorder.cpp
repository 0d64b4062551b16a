//===- obs/FlightRecorder.cpp - Per-thread event ring buffers ---------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"

#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <utility>

using namespace bsched;

uint32_t bsched::obsThreadIndex() {
  static std::atomic<uint32_t> NextIndex{0};
  static thread_local uint32_t Index =
      NextIndex.fetch_add(1, std::memory_order_relaxed);
  return Index;
}

/// One thread's bounded buffer. The owning thread appends under the
/// ring's own mutex (uncontended unless a dump is in flight); dumps lock
/// each ring briefly to copy it out.
struct FlightRecorder::Ring {
  explicit Ring(size_t Capacity, uint32_t Tid) : Tid(Tid) {
    Slots.resize(Capacity);
  }

  mutable std::mutex Mutex;
  uint32_t Tid = 0;
  std::vector<FlightEvent> Slots;
  size_t Next = 0;  ///< Slot the next event overwrites.
  size_t Count = 0; ///< Live events (<= Slots.size()).
};

FlightRecorder::FlightRecorder(size_t PerThreadCapacity)
    : Capacity(PerThreadCapacity == 0 ? 1 : PerThreadCapacity),
      Epoch(std::chrono::steady_clock::now()) {
  static std::atomic<uint64_t> NextInstanceId{1};
  InstanceId = NextInstanceId.fetch_add(1, std::memory_order_relaxed);
}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder &FlightRecorder::global() {
  static FlightRecorder Instance;
  return Instance;
}

uint64_t FlightRecorder::nowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

FlightRecorder::Ring &FlightRecorder::threadRing() {
  // Each thread caches (recorder instance id -> its ring) so steady-state
  // recording never touches the registry mutex. Instance ids (not
  // pointers) key the cache: a recorder destroyed and reallocated at the
  // same address must not inherit a stale ring.
  struct CacheEntry {
    uint64_t InstanceId;
    Ring *TheRing;
  };
  static thread_local std::vector<CacheEntry> Cache;
  for (const CacheEntry &Entry : Cache)
    if (Entry.InstanceId == InstanceId)
      return *Entry.TheRing;

  auto NewRing = std::make_unique<Ring>(Capacity, obsThreadIndex());
  Ring *Raw = NewRing.get();
  {
    std::lock_guard<std::mutex> Lock(RingsMutex);
    Rings.push_back(std::move(NewRing));
  }
  Cache.push_back({InstanceId, Raw});
  return *Raw;
}

void FlightRecorder::record(FlightEvent Event) {
  Ring &R = threadRing();
  if (Event.TsUs == 0)
    Event.TsUs = nowUs();
  if (Event.Tid == 0)
    Event.Tid = R.Tid;
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Slots[R.Next] = std::move(Event);
  R.Next = (R.Next + 1) % R.Slots.size();
  R.Count = std::min(R.Count + 1, R.Slots.size());
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> Result;
  std::lock_guard<std::mutex> RingsLock(RingsMutex);
  for (const std::unique_ptr<Ring> &R : Rings) {
    std::lock_guard<std::mutex> Lock(R->Mutex);
    // Oldest first within the ring: start at Next when it has wrapped.
    size_t Start = R->Count == R->Slots.size() ? R->Next : 0;
    for (size_t I = 0; I != R->Count; ++I)
      Result.push_back(R->Slots[(Start + I) % R->Slots.size()]);
  }
  std::stable_sort(Result.begin(), Result.end(),
                   [](const FlightEvent &A, const FlightEvent &B) {
                     return A.TsUs < B.TsUs;
                   });
  return Result;
}

std::string FlightRecorder::dumpJson(std::string_view Trigger) const {
  JsonWriter W;
  W.beginObject();
  W.key("flight_recorder").beginObject();
  W.key("trigger").value(Trigger);
  std::vector<FlightEvent> All = events();
  W.key("event_count").value(static_cast<uint64_t>(All.size()));
  W.key("events").beginArray();
  for (const FlightEvent &Event : All) {
    W.beginObject();
    W.key("ts_us").value(Event.TsUs);
    W.key("tid").value(static_cast<uint64_t>(Event.Tid));
    W.key("level").value(logLevelName(Event.Level));
    W.key("kind").value("log"); // Every ring event is a log event.
    W.key("component").value(Event.Component);
    W.key("msg").value(Event.Message);
    if (!Event.FieldsJson.empty())
      W.key("fields").rawValue(Event.FieldsJson);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  W.endObject();
  return W.str();
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> RingsLock(RingsMutex);
  for (const std::unique_ptr<Ring> &R : Rings) {
    std::lock_guard<std::mutex> Lock(R->Mutex);
    for (FlightEvent &Slot : R->Slots)
      Slot = FlightEvent();
    R->Next = 0;
    R->Count = 0;
  }
}
