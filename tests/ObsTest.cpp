//===- tests/ObsTest.cpp - Unit tests for the observability layer --------===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the observability contracts of DESIGN.md §3g: merges across N
/// workers are exact, histogram bucket edges are upper-inclusive, trace
/// JSON is schema-valid and strictly nested per thread, and every layer
/// stamps a thread with one index.
///
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Trace.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <thread>

using namespace bsched;

namespace {

//===----------------------------------------------------------------------===
// A minimal JSON syntax checker — enough to assert the writer and the
// trace exporter emit well-formed documents without a JSON dependency.
//===----------------------------------------------------------------------===

struct JsonChecker {
  std::string_view Text;
  size_t Pos = 0;

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == Text.size();
  }

  void skipWs() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  bool string() {
    if (!consume('"'))
      return false;
    while (Pos < Text.size() && Text[Pos] != '"') {
      if (Text[Pos] == '\\') {
        ++Pos;
        if (Pos == Text.size())
          return false;
      }
      ++Pos;
    }
    return consume('"');
  }

  bool number() {
    size_t Start = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    return Pos != Start;
  }

  bool value() {
    skipWs();
    if (Pos == Text.size())
      return false;
    switch (Text[Pos]) {
    case '{': {
      ++Pos;
      if (consume('}'))
        return true;
      do {
        skipWs();
        if (!string() || !consume(':') || !value())
          return false;
      } while (consume(','));
      return consume('}');
    }
    case '[': {
      ++Pos;
      if (consume(']'))
        return true;
      do {
        if (!value())
          return false;
      } while (consume(','));
      return consume(']');
    }
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
};

bool isValidJson(std::string_view Text) { return JsonChecker{Text}.valid(); }

} // namespace

//===----------------------------------------------------------------------===
// MetricRegistry
//===----------------------------------------------------------------------===

TEST(ObsTest, EmptyRegistrySnapshots) {
  MetricRegistry Reg;
  MetricSnapshot Snap = Reg.snapshot();
  EXPECT_TRUE(Snap.empty());
  EXPECT_TRUE(isValidJson(Snap.toJson()));
}

TEST(ObsTest, HandlesAreInertWhenDefaultConstructed) {
  // Must not crash: the "observability off" path of every instrumented
  // call site.
  Counter C;
  Gauge G;
  Histogram H;
  C.add();
  C.add(7);
  G.set(3.5);
  H.record(12);
}

TEST(ObsTest, CounterAddsAndSnapshots) {
  MetricRegistry Reg;
  Counter C = Reg.counter("bsched.test.counter");
  C.add();
  C.add(9);
  MetricSnapshot Snap = Reg.snapshot();
  EXPECT_EQ(Snap.Counters.at("bsched.test.counter"), 10u);
  // Re-registration returns the same slot.
  Reg.counter("bsched.test.counter").add(5);
  EXPECT_EQ(Reg.snapshot().Counters.at("bsched.test.counter"), 15u);
}

TEST(ObsTest, GaugeReportsHighWaterMark) {
  MetricRegistry Reg;
  Gauge G = Reg.gauge("bsched.test.gauge");
  EXPECT_TRUE(Reg.snapshot().Gauges.empty()); // Registered but never set.
  G.set(4.0);
  G.set(2.5); // Last-set within one shard.
  EXPECT_EQ(Reg.snapshot().Gauges.at("bsched.test.gauge"), 2.5);
}

TEST(ObsTest, HistogramBucketEdgesAreUpperInclusive) {
  MetricRegistry Reg;
  Histogram H = Reg.histogram("bsched.test.hist", {2, 4, 8});
  H.record(0); // <= 2
  H.record(2); // == edge 2 lands in its bucket, not the next.
  H.record(3); // <= 4
  H.record(4); // == edge 4
  H.record(8); // == edge 8
  H.record(9); // overflow
  HistogramData Data = Reg.snapshot().Histograms.at("bsched.test.hist");
  ASSERT_EQ(Data.UpperEdges, (std::vector<uint64_t>{2, 4, 8}));
  ASSERT_EQ(Data.Counts.size(), 4u); // Edges + overflow.
  EXPECT_EQ(Data.Counts[0], 2u);
  EXPECT_EQ(Data.Counts[1], 2u);
  EXPECT_EQ(Data.Counts[2], 1u);
  EXPECT_EQ(Data.Counts[3], 1u);
  EXPECT_EQ(Data.Count, 6u);
  EXPECT_EQ(Data.Sum, 26u);
  EXPECT_EQ(Data.Min, 0u);
  EXPECT_EQ(Data.Max, 9u);
}

TEST(ObsTest, TallyMergeEqualsPerSampleRecording) {
  // A plain HistogramData tally folded in once (what the simulator does)
  // must equal recording every sample through the handle.
  const std::vector<uint64_t> Edges = {2, 4, 8};
  const uint64_t Samples[] = {9, 0, 2, 3, 4, 8, 9, 1, 100};
  MetricRegistry PerSample, Tallied;
  Histogram H = PerSample.histogram("bsched.test.hist", Edges);
  HistogramData Tally;
  Tally.UpperEdges = Edges;
  Tally.Counts.assign(Edges.size() + 1, 0);
  for (uint64_t V : Samples) {
    H.record(V);
    Tally.record(V);
  }
  Histogram T = Tallied.histogram("bsched.test.hist", Edges);
  T.merge(Tally);
  T.merge(HistogramData{Edges, {0, 0, 0, 0}, 0, 0, 0, 0}); // Empty: no-op.
  EXPECT_EQ(Tallied.snapshot(), PerSample.snapshot());
  EXPECT_EQ(Tally.Min, 0u);
  EXPECT_EQ(Tally.Max, 100u);
}

TEST(ObsTest, RegistryMergeAcrossWorkersIsExact) {
  // N workers hammer the same counter and histogram; the snapshot must
  // equal the serial total exactly, whatever the shard mapping.
  MetricRegistry Reg;
  Counter C = Reg.counter("bsched.test.parallel");
  Histogram H = Reg.histogram("bsched.test.parallel_hist", {10, 100});
  constexpr size_t Tasks = 64;
  constexpr uint64_t AddsPerTask = 1000;
  ThreadPool Pool(4);
  parallelForEach(Pool, Tasks, [&](size_t Index) {
    for (uint64_t I = 0; I != AddsPerTask; ++I)
      C.add();
    H.record(Index); // 0..63: 10 land <=10 (0..10 minus none missing).
  });
  MetricSnapshot Snap = Reg.snapshot();
  EXPECT_EQ(Snap.Counters.at("bsched.test.parallel"), Tasks * AddsPerTask);
  HistogramData Data = Snap.Histograms.at("bsched.test.parallel_hist");
  EXPECT_EQ(Data.Count, Tasks);
  EXPECT_EQ(Data.Counts[0], 11u); // Values 0..10.
  EXPECT_EQ(Data.Counts[1], 53u); // Values 11..63.
  EXPECT_EQ(Data.Counts[2], 0u);
  EXPECT_EQ(Data.Min, 0u);
  EXPECT_EQ(Data.Max, Tasks - 1);
  EXPECT_EQ(Data.Sum, Tasks * (Tasks - 1) / 2);
}

TEST(ObsTest, MergeSnapshotIntoRegistryRoundTrips) {
  MetricRegistry Source;
  Source.counter("bsched.test.c").add(11);
  Source.gauge("bsched.test.g").set(2.0);
  Source.histogram("bsched.test.h", {1, 2}).record(1);
  MetricSnapshot Snap = Source.snapshot();

  MetricRegistry Target;
  Target.mergeSnapshot(Snap);
  Target.mergeSnapshot(Snap);
  MetricSnapshot Twice = Target.snapshot();
  EXPECT_EQ(Twice.Counters.at("bsched.test.c"), 22u);
  EXPECT_EQ(Twice.Gauges.at("bsched.test.g"), 2.0);
  EXPECT_EQ(Twice.Histograms.at("bsched.test.h").Count, 2u);

  // One fold reproduces the source exactly.
  MetricRegistry Clone;
  Clone.mergeSnapshot(Snap);
  EXPECT_EQ(Clone.snapshot(), Snap);
}

TEST(ObsTest, SnapshotJsonIsValidAndComplete) {
  MetricRegistry Reg;
  Reg.counter("bsched.test.c\"quoted\"").add(1);
  Reg.gauge("bsched.test.g").set(0.5);
  Reg.histogram("bsched.test.h", {3}).record(4);
  std::string Json = Reg.snapshot().toJson();
  EXPECT_TRUE(isValidJson(Json)) << Json;
  EXPECT_NE(Json.find("counters"), std::string::npos);
  EXPECT_NE(Json.find("gauges"), std::string::npos);
  EXPECT_NE(Json.find("histograms"), std::string::npos);
  EXPECT_NE(Json.find("\\\"quoted\\\""), std::string::npos);
}

//===----------------------------------------------------------------------===
// TraceRecorder / ScopedSpan
//===----------------------------------------------------------------------===

TEST(ObsTest, TraceJsonIsSchemaValid) {
  TraceRecorder Trace;
  {
    ScopedSpan Outer(&Trace, "outer", "phase");
    ScopedSpan Inner(&Trace, "inner", "phase", R"({"block":"b0"})");
  }
  std::string Json = Trace.toJson();
  EXPECT_TRUE(isValidJson(Json)) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(Json.find(R"("args":{"block":"b0"})"), std::string::npos);

  std::vector<TraceEvent> Events = Trace.events();
  ASSERT_EQ(Events.size(), 2u);
  for (const TraceEvent &E : Events) {
    EXPECT_FALSE(E.Name.empty());
    EXPECT_STREQ(E.Cat, "phase");
  }
}

TEST(ObsTest, SpansNestStrictlyPerThread) {
  TraceRecorder Trace;
  ThreadPool Pool(4);
  parallelForEach(Pool, 16, [&](size_t Index) {
    ScopedSpan Outer(&Trace, "outer:" + std::to_string(Index));
    {
      ScopedSpan Mid(&Trace, "mid:" + std::to_string(Index));
      ScopedSpan Leaf(&Trace, "leaf:" + std::to_string(Index));
    }
    ScopedSpan Tail(&Trace, "tail:" + std::to_string(Index));
  });

  // RAII destruction order guarantees that on any one thread, spans form
  // a containment forest: two events either nest or are disjoint, never
  // partially overlapping.
  std::vector<TraceEvent> Events = Trace.events();
  EXPECT_EQ(Events.size(), 16u * 4);
  for (size_t I = 0; I != Events.size(); ++I) {
    for (size_t J = I + 1; J != Events.size(); ++J) {
      const TraceEvent &A = Events[I];
      const TraceEvent &B = Events[J];
      if (A.Tid != B.Tid)
        continue;
      uint64_t AEnd = A.TsUs + A.DurUs, BEnd = B.TsUs + B.DurUs;
      bool Disjoint = AEnd <= B.TsUs || BEnd <= A.TsUs;
      bool ANestsInB = A.TsUs >= B.TsUs && AEnd <= BEnd;
      bool BNestsInA = B.TsUs >= A.TsUs && BEnd <= AEnd;
      EXPECT_TRUE(Disjoint || ANestsInB || BNestsInA)
          << A.Name << " [" << A.TsUs << "," << AEnd << ") vs " << B.Name
          << " [" << B.TsUs << "," << BEnd << ") on tid " << A.Tid;
    }
  }
}

TEST(ObsTest, SpansAndFlightEventsShareTheThreadIndex) {
  TraceRecorder Trace;
  FlightRecorder Flight(4);
  // Each round records a span and a flight event on a fresh thread; a
  // thread in between takes a telemetry index without tracing, so tracing
  // with a counter of its own could agree on at most one round.
  for (int Round = 0; Round != 2; ++Round) {
    std::thread([&] {
      { ScopedSpan Span(&Trace, "probe"); }
      Flight.record(FlightEvent());
    }).join();
    std::thread([] { (void)obsThreadIndex(); }).join();
  }
  std::vector<uint32_t> SpanTids, FlightTids;
  for (const TraceEvent &E : Trace.events())
    SpanTids.push_back(E.Tid);
  for (const FlightEvent &E : Flight.events())
    FlightTids.push_back(E.Tid);
  std::sort(SpanTids.begin(), SpanTids.end());
  std::sort(FlightTids.begin(), FlightTids.end());
  ASSERT_EQ(SpanTids.size(), 2u);
  EXPECT_EQ(SpanTids, FlightTids);
}

TEST(ObsTest, TopPhasesRanksByTotalTime) {
  TraceRecorder Trace;
  Trace.record({"slow", "phase", 0, 0, 500, ""});
  Trace.record({"fast", "phase", 0, 0, 10, ""});
  Trace.record({"slow", "phase", 1, 100, 300, ""});
  std::vector<PhaseTotal> Top = Trace.topPhases(5);
  ASSERT_EQ(Top.size(), 2u);
  EXPECT_EQ(Top[0].Name, "slow");
  EXPECT_EQ(Top[0].TotalUs, 800u);
  EXPECT_EQ(Top[0].Count, 2u);
  EXPECT_EQ(Top[1].Name, "fast");
  EXPECT_EQ(Trace.topPhases(1).size(), 1u);
}

TEST(ObsTest, TraceWriteFileRoundTrips) {
  TraceRecorder Trace;
  { ScopedSpan Span(&Trace, "phase-a"); }
  std::string Path = ::testing::TempDir() + "bsched_obs_trace_test.json";
  std::string Error;
  ASSERT_TRUE(Trace.writeFile(Path, &Error)) << Error;
  std::ifstream In(Path);
  std::string Contents((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
  EXPECT_TRUE(isValidJson(Contents)) << Contents;
  EXPECT_NE(Contents.find("phase-a"), std::string::npos);
  std::remove(Path.c_str());

  EXPECT_FALSE(Trace.writeFile("/nonexistent-dir/trace.json", &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(ObsTest, GaugeLastSetWinsAcrossThreads) {
  // Two fresh threads get consecutive process-wide indices, so with a
  // generous shard count they would land on different shards. A gauge
  // is one current value: the later, smaller set must win.
  MetricRegistry Reg(64);
  Gauge G = Reg.gauge("bsched.test.current");
  std::thread([&] { G.set(5.0); }).join();
  std::thread([&] { G.set(3.0); }).join(); // Later in time, smaller.
  EXPECT_EQ(Reg.snapshot().Gauges.at("bsched.test.current"), 3.0);

  // Folding a snapshot in keeps the larger value.
  MetricSnapshot Fold;
  Fold.Gauges["bsched.test.current"] = 4.0;
  Reg.mergeSnapshot(Fold);
  EXPECT_EQ(Reg.snapshot().Gauges.at("bsched.test.current"), 4.0);
  Fold.Gauges["bsched.test.current"] = 1.0;
  Reg.mergeSnapshot(Fold);
  EXPECT_EQ(Reg.snapshot().Gauges.at("bsched.test.current"), 4.0);
}

TEST(ObsTest, HistogramOverflowBucketBoundary) {
  // The last named edge is upper-inclusive; one past it is overflow, and
  // the overflow bucket still tracks Min/Max for quantile clamping.
  MetricRegistry Reg;
  Histogram H = Reg.histogram("bsched.test.overflow", {100});
  H.record(100); // == last edge: named bucket.
  H.record(101); // one past: overflow.
  HistogramData Data = Reg.snapshot().Histograms.at("bsched.test.overflow");
  ASSERT_EQ(Data.Counts.size(), 2u);
  EXPECT_EQ(Data.Counts[0], 1u);
  EXPECT_EQ(Data.Counts[1], 1u);
  EXPECT_EQ(Data.Min, 100u);
  EXPECT_EQ(Data.Max, 101u);
  // The overflow bucket interpolates only up to the observed Max.
  EXPECT_LE(Data.estimateQuantile(1.0), 101.0);
}

TEST(ObsTest, ObsContextDefaultsToNull) {
  ObsContext Obs;
  EXPECT_EQ(Obs.Metrics, nullptr);
  EXPECT_EQ(Obs.Trace, nullptr);
  EXPECT_TRUE(Obs.RequestId.empty());
}

//===----------------------------------------------------------------------===
// HistogramData::estimateQuantile and MetricSnapshot::toPrometheus are
// plain-data operations — they must behave identically in both builds,
// so these tests run unguarded on hand-built snapshots.
//===----------------------------------------------------------------------===

TEST(ObsTest, EstimateQuantileEmptyAndDegenerate) {
  HistogramData Empty;
  EXPECT_EQ(Empty.estimateQuantile(0.5), 0.0);

  // Every sample identical: any quantile clamps to that value even though
  // the bucket spans [Min, edge].
  HistogramData Same{{8}, {4, 0}, 4, 20, 5, 5};
  EXPECT_EQ(Same.estimateQuantile(0.0), 5.0);
  EXPECT_EQ(Same.estimateQuantile(0.5), 5.0);
  EXPECT_EQ(Same.estimateQuantile(1.0), 5.0);
}

TEST(ObsTest, EstimateQuantileInterpolatesWithinBuckets) {
  // 10 samples per bucket, uniformly: the estimator should agree with the
  // exact quantiles of a uniform distribution on the bucket spans.
  HistogramData Data{{10, 20, 30}, {10, 10, 10, 0}, 30, 0, 1, 30};
  EXPECT_DOUBLE_EQ(Data.estimateQuantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(Data.estimateQuantile(0.9), 27.0);
  EXPECT_DOUBLE_EQ(Data.estimateQuantile(1.0), 30.0);
  // Q=0 targets rank 1: interpolates from Min, never below it.
  EXPECT_GE(Data.estimateQuantile(0.0), 1.0);
  EXPECT_LE(Data.estimateQuantile(0.0), 10.0);
  // Out-of-range quantiles clamp instead of extrapolating.
  EXPECT_DOUBLE_EQ(Data.estimateQuantile(2.0), 30.0);
}

TEST(ObsTest, EstimateQuantileOverflowUsesObservedMax) {
  // Three of four samples overflowed the named edges; the overflow bucket
  // interpolates between the last edge and the observed Max, so the tail
  // estimate stays finite and within the data.
  HistogramData Data{{4}, {1, 3}, 4, 0, 2, 100};
  const double P99 = Data.estimateQuantile(0.99);
  EXPECT_GT(P99, 4.0);
  EXPECT_LE(P99, 100.0);
  EXPECT_NEAR(P99, 4.0 + 96.0 * ((0.99 * 4 - 1) / 3.0), 1e-9);
}

TEST(ObsTest, ToPrometheusGolden) {
  MetricSnapshot Snap;
  Snap.Counters["bsched.server.requests"] = 42;
  Snap.Gauges["bsched.engine.pool.high-water"] = 3.5;
  Snap.Histograms["bsched.server.latency_us.compile"] =
      HistogramData{{2, 4}, {1, 2, 1}, 4, 20, 1, 9};
  EXPECT_EQ(Snap.toPrometheus(),
            "# TYPE bsched_server_requests counter\n"
            "bsched_server_requests 42\n"
            "# TYPE bsched_engine_pool_high_water gauge\n"
            "bsched_engine_pool_high_water 3.5\n"
            "# TYPE bsched_server_latency_us_compile histogram\n"
            "bsched_server_latency_us_compile_bucket{le=\"2\"} 1\n"
            "bsched_server_latency_us_compile_bucket{le=\"4\"} 3\n"
            "bsched_server_latency_us_compile_bucket{le=\"+Inf\"} 4\n"
            "bsched_server_latency_us_compile_sum 20\n"
            "bsched_server_latency_us_compile_count 4\n");
}

TEST(ObsTest, ToPrometheusSanitizesHostileNames) {
  MetricSnapshot Snap;
  Snap.Counters["9lives total#1"] = 1;
  std::string Text = Snap.toPrometheus();
  EXPECT_NE(Text.find("_9lives_total_1 1\n"), std::string::npos) << Text;
}
