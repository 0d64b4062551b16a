//===- obs/Trace.cpp - Phase tracing (Chrome trace events) ------------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/FlightRecorder.h"
#include "support/Json.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <utility>

using namespace bsched;

TraceRecorder::TraceRecorder() : Epoch(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() = default;

uint64_t TraceRecorder::nowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

void TraceRecorder::record(TraceEvent Event) {
  Shard &S = Shards[obsThreadIndex() % NumShards];
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Events.push_back(std::move(Event));
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> All;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    All.insert(All.end(), S.Events.begin(), S.Events.end());
  }
  // Parents start no later and last no shorter than the spans they
  // contain, so (start asc, duration desc) orders containers first.
  std::stable_sort(All.begin(), All.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     if (A.TsUs != B.TsUs)
                       return A.TsUs < B.TsUs;
                     if (A.DurUs != B.DurUs)
                       return A.DurUs > B.DurUs;
                     if (A.Tid != B.Tid)
                       return A.Tid < B.Tid;
                     return A.Name < B.Name;
                   });
  return All;
}

std::string TraceRecorder::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("traceEvents").beginArray();
  for (const TraceEvent &E : events()) {
    W.beginObject();
    W.key("name").value(E.Name);
    W.key("cat").value(E.Cat);
    W.key("ph").value("X");
    W.key("pid").value(0);
    W.key("tid").value(E.Tid);
    W.key("ts").value(E.TsUs);
    W.key("dur").value(E.DurUs);
    if (!E.Args.empty())
      W.key("args").rawValue(E.Args);
    W.endObject();
  }
  W.endArray();
  W.key("displayTimeUnit").value("ms");
  W.endObject();
  return W.str();
}

bool TraceRecorder::writeFile(const std::string &Path,
                              std::string *Error) const {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  Out << toJson() << '\n';
  Out.flush();
  if (!Out) {
    if (Error)
      *Error = "write to '" + Path + "' failed";
    return false;
  }
  return true;
}

std::vector<PhaseTotal> TraceRecorder::topPhases(size_t N) const {
  std::map<std::string, PhaseTotal> ByName;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    for (const TraceEvent &E : S.Events) {
      PhaseTotal &Total = ByName[E.Name];
      Total.Name = E.Name;
      Total.TotalUs += E.DurUs;
      Total.Count += 1;
    }
  }
  std::vector<PhaseTotal> Ranked;
  Ranked.reserve(ByName.size());
  for (auto &[Name, Total] : ByName)
    Ranked.push_back(std::move(Total));
  std::stable_sort(Ranked.begin(), Ranked.end(),
                   [](const PhaseTotal &A, const PhaseTotal &B) {
                     if (A.TotalUs != B.TotalUs)
                       return A.TotalUs > B.TotalUs;
                     return A.Name < B.Name;
                   });
  if (Ranked.size() > N)
    Ranked.resize(N);
  return Ranked;
}

ScopedSpan::ScopedSpan(TraceRecorder *Recorder, std::string Name,
                       const char *Cat, std::string ArgsJson)
    : Recorder(Recorder), Name(std::move(Name)), Cat(Cat),
      Args(std::move(ArgsJson)) {
  if (this->Recorder)
    StartUs = this->Recorder->nowUs();
}

ScopedSpan::~ScopedSpan() {
  if (!Recorder)
    return;
  uint64_t EndUs = Recorder->nowUs();
  TraceEvent Event;
  Event.Name = std::move(Name);
  Event.Cat = Cat;
  Event.Tid = obsThreadIndex();
  Event.TsUs = StartUs;
  Event.DurUs = EndUs >= StartUs ? EndUs - StartUs : 0;
  Event.Args = std::move(Args);
  Recorder->record(std::move(Event));
}
