//===- obs/Log.h - Leveled structured (NDJSON) logging ---------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The logging half of the observability layer (DESIGN.md §3l): a leveled
/// logger that emits one NDJSON object per event to a shared sink, so the
/// compile service and the CLIs produce machine-parseable telemetry
/// instead of ad-hoc stderr writes.
///
/// Every event carries a wall-clock timestamp, level, process-wide thread
/// index, component, message, and optional typed fields:
///
///   {"ts_us":1754700000000000,"level":"info","tid":0,"component":
///    "server","msg":"listening","fields":{"socket":"/tmp/b.sock"}}
///
/// Design rules:
///  - **One shared sink.** `Logger::global()` is the process logger; the
///    CLIs configure it from `--log-file` / `--log-level`
///    (`support/CliOptions`). Library layers never log — they report
///    diagnostics; only the service and tool mains narrate.
///  - **Console mirroring.** `console()` prints the exact legacy text to
///    the console stream (stderr by default) *and* emits the structured
///    event, so golden-output tests stay byte-stable while every
///    diagnostic also reaches the NDJSON sink.
///  - **Flight recorder feed.** Events at Debug and above are always
///    copied into the attached `FlightRecorder` ring — even when the
///    sink filters them — so a post-mortem dump has recent context the
///    operator chose not to persist.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_OBS_LOG_H
#define BSCHED_OBS_LOG_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace bsched {

class FlightRecorder;

/// Event severities, ordered; `Off` disables every sink write.
enum class LogLevel : uint8_t {
  Trace = 0,
  Debug,
  Info,
  Warn,
  Error,
  Off,
};

/// "trace", "debug", "info", "warn", "error", "off".
std::string_view logLevelName(LogLevel Level);

/// Parses a level name (as accepted by --log-level). Returns nullopt for
/// anything else.
std::optional<LogLevel> parseLogLevel(std::string_view Text);

/// One typed key/value attached to a log event. Cheap to construct in an
/// initializer list; keys and string values are borrowed for the duration
/// of the log() call.
struct LogField {
  enum class Kind : uint8_t { Str, U64, I64, F64, Bool, RawJson };

  std::string_view Key;
  Kind K = Kind::Str;
  std::string_view Str;
  uint64_t U64 = 0;
  int64_t I64 = 0;
  double F64 = 0.0;
  bool B = false;

  LogField(std::string_view Key, std::string_view Value)
      : Key(Key), K(Kind::Str), Str(Value) {}
  LogField(std::string_view Key, const char *Value)
      : Key(Key), K(Kind::Str), Str(Value) {}
  LogField(std::string_view Key, const std::string &Value)
      : Key(Key), K(Kind::Str), Str(Value) {}
  LogField(std::string_view Key, uint64_t Value)
      : Key(Key), K(Kind::U64), U64(Value) {}
  LogField(std::string_view Key, unsigned Value)
      : Key(Key), K(Kind::U64), U64(Value) {}
  LogField(std::string_view Key, int64_t Value)
      : Key(Key), K(Kind::I64), I64(Value) {}
  LogField(std::string_view Key, int Value)
      : Key(Key), K(Kind::I64), I64(Value) {}
  LogField(std::string_view Key, double Value)
      : Key(Key), K(Kind::F64), F64(Value) {}
  LogField(std::string_view Key, bool Value)
      : Key(Key), K(Kind::Bool), B(Value) {}

  /// A pre-rendered JSON value spliced verbatim (must be complete JSON).
  static LogField raw(std::string_view Key, std::string_view Json) {
    LogField F(Key, Json);
    F.K = Kind::RawJson;
    return F;
  }
};

/// The NDJSON logger. Thread-safe: event lines are assembled off-lock and
/// appended to the sink under one mutex, so concurrent writers never
/// interleave bytes. Construction is cheap; most code uses `global()`.
class Logger {
public:
  Logger();
  ~Logger();

  Logger(const Logger &) = delete;
  Logger &operator=(const Logger &) = delete;

  /// The process-wide logger the CLIs configure from --log-file /
  /// --log-level. Starts with no sink at level Info.
  static Logger &global();

  /// Sets the minimum level written to the sink (ring capture is
  /// unaffected). Thread-safe.
  void setLevel(LogLevel Level) {
    Level_.store(static_cast<uint8_t>(Level), std::memory_order_relaxed);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(Level_.load(std::memory_order_relaxed));
  }

  /// True when an event at \p Level would reach the sink — the cheap
  /// early-out for call sites that build expensive fields.
  bool enabled(LogLevel Level) const {
    return HasSink.load(std::memory_order_relaxed) &&
           static_cast<uint8_t>(Level) >=
               Level_.load(std::memory_order_relaxed) &&
           Level != LogLevel::Off;
  }

  /// Opens (appends to) \p Path as the sink, replacing any previous one.
  /// Returns false and fills \p Error on failure.
  bool openFile(const std::string &Path, std::string *Error = nullptr);

  /// Uses \p Sink directly (not owned; nullptr detaches). Tests point
  /// this at tmpfile().
  void setSink(std::FILE *Sink);

  /// Flushes and closes an openFile() sink; detaches a borrowed one.
  void closeSink();

  /// Redirects console() passthrough (default stderr). Tests only.
  void setConsoleStream(std::FILE *Stream);

  /// Attaches the ring that captures Debug+ events (default: the global
  /// flight recorder). nullptr disables capture.
  void setFlightRecorder(FlightRecorder *Recorder);

  /// Emits one structured event. Below-threshold events still reach the
  /// flight-recorder ring when at Debug or above.
  void log(LogLevel Level, std::string_view Component,
           std::string_view Message,
           std::initializer_list<LogField> Fields = {});

  /// Prints \p Text verbatim (plus '\n') to the console stream and
  /// mirrors it as a structured event — the drop-in replacement for the
  /// CLIs' fprintf(stderr, ...) diagnostics.
  void console(LogLevel Level, std::string_view Component,
               std::string_view Text,
               std::initializer_list<LogField> Fields = {});

private:
  std::atomic<uint8_t> Level_{static_cast<uint8_t>(LogLevel::Info)};
  std::atomic<bool> HasSink{false};
  mutable std::mutex SinkMutex;
  std::FILE *Sink = nullptr;
  bool OwnsSink = false;
  std::FILE *ConsoleStream = nullptr; ///< nullptr means stderr.
  std::atomic<FlightRecorder *> Ring;
  std::atomic<uint64_t> NextSeq{0};
};

/// Configures `Logger::global()` from the shared CLI flags: parses
/// \p LevelText (empty keeps the default) and opens \p FilePath as the
/// sink (empty leaves the sink detached). Returns false and fills
/// \p Error with a printable message on a bad level or unopenable file.
bool configureGlobalLogger(const std::string &LevelText,
                           const std::string &FilePath, std::string *Error);

} // namespace bsched

#endif // BSCHED_OBS_LOG_H
