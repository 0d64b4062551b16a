//===- tests/LogTest.cpp - Structured logging + flight recorder -----------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// The telemetry half of the observability layer (DESIGN.md §3l): the
// NDJSON logger (level gating, sink lines, console mirroring) and the
// per-thread flight-recorder rings (bounded capacity, multi-thread merge,
// dump validity). Every sink assertion parses the emitted bytes back
// through the JSON reader — the contract is "machine-parseable", not
// "looks right".
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"
#include "obs/Log.h"
#include "support/JsonValue.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace bsched;

namespace {

/// RAII tmpfile sink; readLines() rewinds and splits what was written.
class TmpSink {
public:
  TmpSink() : File(std::tmpfile()) {}
  ~TmpSink() {
    if (File)
      std::fclose(File);
  }
  std::FILE *get() { return File; }

  std::vector<std::string> readLines() {
    std::fflush(File);
    std::rewind(File);
    std::vector<std::string> Lines;
    std::string Current;
    int C;
    while ((C = std::fgetc(File)) != EOF) {
      if (C == '\n') {
        Lines.push_back(Current);
        Current.clear();
      } else {
        Current.push_back(static_cast<char>(C));
      }
    }
    if (!Current.empty())
      Lines.push_back(Current);
    return Lines;
  }

private:
  std::FILE *File;
};

} // namespace

//===----------------------------------------------------------------------===//
// Levels and configuration.
//===----------------------------------------------------------------------===//

TEST(LogTest, LevelNamesRoundTrip) {
  for (LogLevel L : {LogLevel::Trace, LogLevel::Debug, LogLevel::Info,
                     LogLevel::Warn, LogLevel::Error, LogLevel::Off}) {
    auto Parsed = parseLogLevel(logLevelName(L));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, L);
  }
  EXPECT_FALSE(parseLogLevel("verbose").has_value());
  EXPECT_FALSE(parseLogLevel("").has_value());
  EXPECT_FALSE(parseLogLevel("INFO").has_value()); // Names are lowercase.
}

TEST(LogTest, ConfigureGlobalLoggerRejectsBadLevel) {
  std::string Error;
  EXPECT_FALSE(configureGlobalLogger("loud", "", &Error));
  EXPECT_NE(Error.find("unknown log level"), std::string::npos);
  EXPECT_NE(Error.find("loud"), std::string::npos);
}

TEST(LogTest, EnabledRequiresSinkAndLevel) {
  Logger Log;
  Log.setFlightRecorder(nullptr);
  // No sink: nothing is enabled regardless of level.
  EXPECT_FALSE(Log.enabled(LogLevel::Error));

  TmpSink Sink;
  Log.setSink(Sink.get());
  Log.setLevel(LogLevel::Warn);
  EXPECT_FALSE(Log.enabled(LogLevel::Info));
  EXPECT_TRUE(Log.enabled(LogLevel::Warn));
  EXPECT_TRUE(Log.enabled(LogLevel::Error));
  EXPECT_FALSE(Log.enabled(LogLevel::Off));
  Log.closeSink();
  EXPECT_FALSE(Log.enabled(LogLevel::Error));
}

//===----------------------------------------------------------------------===//
// Sink lines.
//===----------------------------------------------------------------------===//

TEST(LogTest, SinkLinesAreParseableNdjson) {
  Logger Log;
  Log.setFlightRecorder(nullptr);
  TmpSink Sink;
  Log.setSink(Sink.get());
  Log.setLevel(LogLevel::Debug);

  Log.log(LogLevel::Info, "test", "hello",
          {{"s", "text"},
           {"u", uint64_t(42)},
           {"i", int64_t(-7)},
           {"f", 2.5},
           {"b", true},
           LogField::raw("r", "[1,2]")});
  Log.log(LogLevel::Error, "test", "quote \"inside\"\nnewline");
  Log.closeSink();

  std::vector<std::string> Lines = Sink.readLines();
  ASSERT_EQ(Lines.size(), 2u);

  ErrorOr<JsonValue> First = parseJson(Lines[0]);
  ASSERT_TRUE(First.has_value()) << Lines[0];
  EXPECT_EQ(First->find("level")->asString(), "info");
  EXPECT_EQ(First->find("component")->asString(), "test");
  EXPECT_EQ(First->find("msg")->asString(), "hello");
  EXPECT_GT(First->find("ts_us")->asNumber(), 0.0);
  const JsonValue *Fields = First->find("fields");
  ASSERT_NE(Fields, nullptr);
  EXPECT_EQ(Fields->find("s")->asString(), "text");
  EXPECT_DOUBLE_EQ(Fields->find("u")->asNumber(), 42.0);
  EXPECT_DOUBLE_EQ(Fields->find("i")->asNumber(), -7.0);
  EXPECT_DOUBLE_EQ(Fields->find("f")->asNumber(), 2.5);
  EXPECT_TRUE(Fields->find("b")->asBool());
  ASSERT_TRUE(Fields->find("r")->isArray());
  EXPECT_EQ(Fields->find("r")->elements().size(), 2u);

  // Embedded quotes/newlines must be escaped, not break the line.
  ErrorOr<JsonValue> Second = parseJson(Lines[1]);
  ASSERT_TRUE(Second.has_value()) << Lines[1];
  EXPECT_EQ(Second->find("msg")->asString(), "quote \"inside\"\nnewline");
  // Sequence numbers order events within the process.
  EXPECT_GT(Second->find("seq")->asNumber(), First->find("seq")->asNumber());
}

TEST(LogTest, SinkThresholdFiltersEvents) {
  Logger Log;
  Log.setFlightRecorder(nullptr);
  TmpSink Sink;
  Log.setSink(Sink.get());
  Log.setLevel(LogLevel::Warn);

  Log.log(LogLevel::Debug, "test", "dropped");
  Log.log(LogLevel::Info, "test", "dropped too");
  Log.log(LogLevel::Warn, "test", "kept");
  Log.closeSink();

  std::vector<std::string> Lines = Sink.readLines();
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_NE(Lines[0].find("\"msg\":\"kept\""), std::string::npos);
}

TEST(LogTest, ConsoleMirrorsTextAndStructuredEvent) {
  Logger Log;
  Log.setFlightRecorder(nullptr);
  TmpSink Console;
  TmpSink Sink;
  Log.setConsoleStream(Console.get());
  Log.setSink(Sink.get());
  Log.setLevel(LogLevel::Info);

  Log.console(LogLevel::Error, "tool", "error: it broke",
              {{"code", "BS802"}});
  Log.closeSink();

  // The console passthrough is byte-exact, so golden CLI output does not
  // depend on the structured sink.
  std::vector<std::string> ConsoleLines = Console.readLines();
  ASSERT_EQ(ConsoleLines.size(), 1u);
  EXPECT_EQ(ConsoleLines[0], "error: it broke");

  std::vector<std::string> SinkLines = Sink.readLines();
  ASSERT_EQ(SinkLines.size(), 1u);
  ErrorOr<JsonValue> Event = parseJson(SinkLines[0]);
  ASSERT_TRUE(Event.has_value());
  EXPECT_EQ(Event->find("msg")->asString(), "error: it broke");
  EXPECT_EQ(Event->find("component")->asString(), "tool");
  EXPECT_EQ(Event->find("fields")->find("code")->asString(), "BS802");
}

TEST(LogTest, ConcurrentWritersNeverInterleaveBytes) {
  Logger Log;
  Log.setFlightRecorder(nullptr);
  TmpSink Sink;
  Log.setSink(Sink.get());
  Log.setLevel(LogLevel::Info);

  constexpr unsigned Threads = 4;
  constexpr unsigned PerThread = 50;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&Log, T] {
      for (unsigned I = 0; I != PerThread; ++I)
        Log.log(LogLevel::Info, "worker", "event",
                {{"t", T}, {"i", I}});
    });
  for (std::thread &W : Workers)
    W.join();
  Log.closeSink();

  std::vector<std::string> Lines = Sink.readLines();
  ASSERT_EQ(Lines.size(), Threads * PerThread);
  for (const std::string &Line : Lines)
    EXPECT_TRUE(parseJson(Line).has_value()) << Line;
}

//===----------------------------------------------------------------------===//
// Flight recorder.
//===----------------------------------------------------------------------===//

TEST(FlightRecorderTest, RingKeepsTheNewestEventsOnly) {
  FlightRecorder Recorder(/*PerThreadCapacity=*/4);
  for (int I = 0; I != 10; ++I) {
    FlightEvent E;
    E.Component = "test";
    E.Message = "event-" + std::to_string(I);
    Recorder.record(std::move(E));
  }
  std::vector<FlightEvent> Events = Recorder.events();
  ASSERT_EQ(Events.size(), 4u);
  // The oldest six were overwritten; 6..9 survive in order.
  for (int I = 0; I != 4; ++I)
    EXPECT_EQ(Events[I].Message, "event-" + std::to_string(6 + I));
}

TEST(FlightRecorderTest, TimestampAndTidAreFilledWhenZero) {
  FlightRecorder Recorder(8);
  FlightEvent E;
  E.Component = "test";
  E.Message = "stamped";
  Recorder.record(std::move(E));
  std::vector<FlightEvent> Events = Recorder.events();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Tid, obsThreadIndex());
}

TEST(FlightRecorderTest, ThreadsGetIndependentRings) {
  FlightRecorder Recorder(/*PerThreadCapacity=*/4);
  constexpr unsigned Threads = 3;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&Recorder] {
      // Each thread writes capacity-many events into its own ring; with a
      // shared ring only 4 of the 12 would survive.
      for (int I = 0; I != 4; ++I) {
        FlightEvent E;
        E.Component = "worker";
        E.Message = "m";
        Recorder.record(std::move(E));
      }
    });
  for (std::thread &W : Workers)
    W.join();
  std::vector<FlightEvent> Events = Recorder.events();
  EXPECT_EQ(Events.size(), Threads * 4u);
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_LE(Events[I - 1].TsUs, Events[I].TsUs); // Merged dump is sorted.
}

TEST(FlightRecorderTest, DumpJsonIsValidAndNamesTheTrigger) {
  FlightRecorder Recorder(8);
  FlightEvent E;
  E.Level = LogLevel::Error;
  E.Component = "server";
  E.Message = "injected fault";
  E.FieldsJson = "{\"request_id\":\"r1\",\"code\":\"BS810\"}";
  Recorder.record(std::move(E));

  std::string Dump = Recorder.dumpJson("BS810");
  ErrorOr<JsonValue> Doc = parseJson(Dump);
  ASSERT_TRUE(Doc.has_value()) << Dump;
  const JsonValue *Body = Doc->find("flight_recorder");
  ASSERT_NE(Body, nullptr);
  EXPECT_EQ(Body->find("trigger")->asString(), "BS810");
  ASSERT_TRUE(Body->find("events")->isArray());
  const auto &Events = Body->find("events")->elements();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].find("level")->asString(), "error");
  EXPECT_EQ(Events[0].find("kind")->asString(), "log");
  EXPECT_EQ(Events[0].find("fields")->find("request_id")->asString(), "r1");
}

TEST(FlightRecorderTest, ClearEmptiesEveryRing) {
  FlightRecorder Recorder(8);
  FlightEvent E;
  E.Message = "gone";
  Recorder.record(std::move(E));
  Recorder.clear();
  EXPECT_TRUE(Recorder.events().empty());
}

TEST(FlightRecorderTest, LoggerFeedsRingEvenWhenSinkFilters) {
  Logger Log;
  FlightRecorder Recorder(8);
  Log.setFlightRecorder(&Recorder);
  TmpSink Sink;
  Log.setSink(Sink.get());
  Log.setLevel(LogLevel::Error); // Sink threshold far above Debug...

  Log.log(LogLevel::Debug, "server", "request", {{"request_id", "r9"}});
  Log.log(LogLevel::Trace, "server", "too fine"); // ...Trace never rings.
  Log.setFlightRecorder(nullptr);
  Log.closeSink();

  EXPECT_TRUE(Sink.readLines().empty()); // Below the sink threshold.
  std::vector<FlightEvent> Events = Recorder.events();
  ASSERT_EQ(Events.size(), 1u); // Debug ringed, Trace did not.
  EXPECT_EQ(Events[0].Message, "request");
  EXPECT_NE(Events[0].FieldsJson.find("r9"), std::string::npos);
}
