//===- obs/Log.cpp - Leveled structured (NDJSON) logging --------------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "obs/Log.h"

#include "obs/FlightRecorder.h"
#include "support/Json.h"

#include <cerrno>
#include <chrono>
#include <cstring>

using namespace bsched;

std::string_view bsched::logLevelName(LogLevel Level) {
  switch (Level) {
  case LogLevel::Trace:
    return "trace";
  case LogLevel::Debug:
    return "debug";
  case LogLevel::Info:
    return "info";
  case LogLevel::Warn:
    return "warn";
  case LogLevel::Error:
    return "error";
  case LogLevel::Off:
    return "off";
  }
  return "info";
}

std::optional<LogLevel> bsched::parseLogLevel(std::string_view Text) {
  for (LogLevel L : {LogLevel::Trace, LogLevel::Debug, LogLevel::Info,
                     LogLevel::Warn, LogLevel::Error, LogLevel::Off})
    if (Text == logLevelName(L))
      return L;
  return std::nullopt;
}

namespace {

uint64_t wallClockUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Renders the fields of one event as a JSON object. Shared between the
/// sink line and the flight-recorder copy.
std::string renderFields(std::initializer_list<LogField> Fields) {
  if (Fields.size() == 0)
    return std::string();
  JsonWriter W;
  W.beginObject();
  for (const LogField &F : Fields) {
    W.key(F.Key);
    switch (F.K) {
    case LogField::Kind::Str:
      W.value(F.Str);
      break;
    case LogField::Kind::U64:
      W.value(F.U64);
      break;
    case LogField::Kind::I64:
      W.value(F.I64);
      break;
    case LogField::Kind::F64:
      W.value(F.F64);
      break;
    case LogField::Kind::Bool:
      W.value(F.B);
      break;
    case LogField::Kind::RawJson:
      W.rawValue(F.Str);
      break;
    }
  }
  W.endObject();
  return W.str();
}

} // namespace

Logger::Logger() : Ring(&FlightRecorder::global()) {}

Logger::~Logger() { closeSink(); }

Logger &Logger::global() {
  static Logger Instance;
  return Instance;
}

bool Logger::openFile(const std::string &Path, std::string *Error) {
  std::FILE *File = std::fopen(Path.c_str(), "a");
  if (!File) {
    if (Error)
      *Error = "cannot open log file '" + Path +
               "': " + std::strerror(errno);
    return false;
  }
  std::lock_guard<std::mutex> Lock(SinkMutex);
  if (Sink && OwnsSink)
    std::fclose(Sink);
  Sink = File;
  OwnsSink = true;
  HasSink.store(true, std::memory_order_relaxed);
  return true;
}

void Logger::setSink(std::FILE *NewSink) {
  std::lock_guard<std::mutex> Lock(SinkMutex);
  if (Sink && OwnsSink)
    std::fclose(Sink);
  Sink = NewSink;
  OwnsSink = false;
  HasSink.store(Sink != nullptr, std::memory_order_relaxed);
}

void Logger::closeSink() {
  std::lock_guard<std::mutex> Lock(SinkMutex);
  if (Sink && OwnsSink)
    std::fclose(Sink);
  Sink = nullptr;
  OwnsSink = false;
  HasSink.store(false, std::memory_order_relaxed);
}

void Logger::setConsoleStream(std::FILE *Stream) {
  std::lock_guard<std::mutex> Lock(SinkMutex);
  ConsoleStream = Stream;
}

void Logger::setFlightRecorder(FlightRecorder *Recorder) {
  Ring.store(Recorder, std::memory_order_relaxed);
}

void Logger::log(LogLevel Level, std::string_view Component,
                 std::string_view Message,
                 std::initializer_list<LogField> Fields) {
  if (Level == LogLevel::Off)
    return;
  const bool SinkWants = enabled(Level);
  FlightRecorder *Recorder = Ring.load(std::memory_order_relaxed);
  const bool RingWants = Recorder && Level >= LogLevel::Debug;
  if (!SinkWants && !RingWants)
    return;

  std::string FieldsJson = renderFields(Fields);
  if (RingWants) {
    FlightEvent Event;
    Event.Level = Level;
    Event.Component = std::string(Component);
    Event.Message = std::string(Message);
    Event.FieldsJson = FieldsJson;
    Recorder->record(std::move(Event));
  }
  if (!SinkWants)
    return;

  JsonWriter W;
  W.beginObject();
  W.key("ts_us").value(wallClockUs());
  W.key("seq").value(NextSeq.fetch_add(1, std::memory_order_relaxed));
  W.key("level").value(logLevelName(Level));
  W.key("tid").value(static_cast<uint64_t>(obsThreadIndex()));
  W.key("component").value(Component);
  W.key("msg").value(Message);
  if (!FieldsJson.empty())
    W.key("fields").rawValue(FieldsJson);
  W.endObject();
  const std::string &Line = W.str();

  std::lock_guard<std::mutex> Lock(SinkMutex);
  if (!Sink)
    return;
  std::fwrite(Line.data(), 1, Line.size(), Sink);
  std::fputc('\n', Sink);
  std::fflush(Sink);
}

void Logger::console(LogLevel Level, std::string_view Component,
                     std::string_view Text,
                     std::initializer_list<LogField> Fields) {
  std::FILE *Console;
  {
    std::lock_guard<std::mutex> Lock(SinkMutex);
    Console = ConsoleStream ? ConsoleStream : stderr;
  }
  std::fwrite(Text.data(), 1, Text.size(), Console);
  std::fputc('\n', Console);
  log(Level, Component, Text, Fields);
}

bool bsched::configureGlobalLogger(const std::string &LevelText,
                                   const std::string &FilePath,
                                   std::string *Error) {
  if (!LevelText.empty()) {
    std::optional<LogLevel> Level = parseLogLevel(LevelText);
    if (!Level) {
      if (Error)
        *Error = "unknown log level '" + LevelText +
                 "' (expected trace, debug, info, warn, error or off)";
      return false;
    }
    Logger::global().setLevel(*Level);
  }
  if (!FilePath.empty() && !Logger::global().openFile(FilePath, Error))
    return false;
  return true;
}
