//===- tests/ServerTest.cpp - Compile-service daemon tests ----------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// The bsched_server lifecycle and fault model (DESIGN.md §3j): the shared
// sharded CompileCache (hit/miss accounting, LRU + byte eviction,
// concurrent hammering), the request core (handleRequest never crashes —
// malformed input becomes ok:false with structured diagnostics), the real
// AF_UNIX socket path (oversized frames answered with BS905, truncated
// frames survived, shutdown under in-flight traffic), operator budget
// clamps, and serial == concurrent determinism.
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"
#include "obs/Log.h"
#include "parser/Parser.h"
#include "server/Server.h"
#include "support/FailPoint.h"
#include "support/Json.h"
#include "support/JsonValue.h"
#include "support/Socket.h"
#include "support/Statistics.h"
#include "support/Wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace bsched;

namespace {

const char *TinyKernel = R"(
func @k {
block body freq 1 {
  %i0 = li 64
  %f0 = fload [%i0 + 0] !a
  %f1 = fadd %f0, %f0
  fstore %f1, [%i0 + 8] !a
  ret
}
}
)";

Function parseOne(const std::string &Source) {
  ParseResult Result = parseIr(Source);
  EXPECT_TRUE(Result.ok());
  return std::move(Result.Functions.front());
}

/// A family of distinct kernels (different immediates => different cache
/// keys) for eviction and concurrency tests.
std::string kernelVariant(unsigned N) {
  std::string S = TinyKernel;
  std::string Needle = "li 64";
  S.replace(S.find(Needle), Needle.size(), "li " + std::to_string(100 + N));
  return S;
}

//===----------------------------------------------------------------------===//
// CompileCache.
//===----------------------------------------------------------------------===//

TEST(CompileCacheTest, SecondCompileIsAHit) {
  CompileCache Cache(CompileCacheConfig::unlimited());
  Function F = parseOne(TinyKernel);
  PipelineConfig Config = PipelineConfig::paperDefault();

  bool Hit = true;
  ErrorOr<CompiledFunction> First = Cache.compile(F, Config, &Hit);
  ASSERT_TRUE(First.has_value());
  EXPECT_FALSE(Hit);

  ErrorOr<CompiledFunction> Second = Cache.compile(F, Config, &Hit);
  ASSERT_TRUE(Second.has_value());
  EXPECT_TRUE(Hit);
  EXPECT_EQ(First->StaticInstructions, Second->StaticInstructions);

  CompileCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Insertions, 1u);
  EXPECT_EQ(Stats.Entries, 1u);
  EXPECT_GT(Stats.Bytes, 0u);
  EXPECT_DOUBLE_EQ(Stats.hitRate(), 0.5);
}

TEST(CompileCacheTest, DifferentConfigIsADifferentEntry) {
  CompileCache Cache(CompileCacheConfig::unlimited());
  Function F = parseOne(TinyKernel);
  PipelineConfig A = PipelineConfig::paperDefault();
  PipelineConfig B = PipelineConfig::paperDefault();
  B.Policy = SchedulerPolicy::Traditional;

  bool Hit = true;
  ASSERT_TRUE(Cache.compile(F, A, &Hit).has_value());
  EXPECT_FALSE(Hit);
  ASSERT_TRUE(Cache.compile(F, B, &Hit).has_value());
  EXPECT_FALSE(Hit);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(CompileCacheTest, FailuresAreNeverCached) {
  CompileCache Cache(CompileCacheConfig::unlimited());
  Function F = parseOne(TinyKernel);
  PipelineConfig Config = PipelineConfig::paperDefault();
  Config.Budget.MaxInstructionsPerBlock = 1; // Nothing fits.
  Config.Budget.Degrade = false;

  for (int I = 0; I != 2; ++I) {
    bool Hit = true;
    ErrorOr<CompiledFunction> Result = Cache.compile(F, Config, &Hit);
    EXPECT_FALSE(Result.has_value());
    EXPECT_FALSE(Hit);
  }
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.stats().Misses, 2u);
}

TEST(CompileCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  CompileCacheConfig Geometry;
  Geometry.Shards = 1; // One shard: deterministic LRU order.
  Geometry.MaxBytes = 1;
  CompileCache Cache(Geometry);
  PipelineConfig Config = PipelineConfig::paperDefault();

  // Every entry exceeds the budget on its own, so each insertion evicts
  // its predecessor: the cache stays bounded instead of growing forever.
  for (unsigned N = 0; N != 4; ++N) {
    Function F = parseOne(kernelVariant(N));
    ASSERT_TRUE(Cache.compile(F, Config).has_value());
  }
  CompileCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Insertions, 4u);
  EXPECT_GE(Stats.Evictions, 3u);
  EXPECT_LE(Stats.Entries, 1u);
}

TEST(CompileCacheTest, EntryBudgetBoundsOccupancy) {
  CompileCacheConfig Geometry;
  Geometry.Shards = 1;
  Geometry.MaxBytes = 0;
  Geometry.MaxEntries = 2;
  CompileCache Cache(Geometry);
  PipelineConfig Config = PipelineConfig::paperDefault();

  for (unsigned N = 0; N != 5; ++N)
    ASSERT_TRUE(Cache.compile(parseOne(kernelVariant(N)), Config)
                    .has_value());
  EXPECT_LE(Cache.size(), 2u);
  EXPECT_GE(Cache.stats().Evictions, 3u);

  // The survivors are the most recently used: variant 4 must be a hit.
  bool Hit = false;
  ASSERT_TRUE(
      Cache.compile(parseOne(kernelVariant(4)), Config, &Hit).has_value());
  EXPECT_TRUE(Hit);
}

TEST(CompileCacheTest, ClearDropsEntriesKeepsHistory) {
  CompileCache Cache(CompileCacheConfig::unlimited());
  PipelineConfig Config = PipelineConfig::paperDefault();
  ASSERT_TRUE(Cache.compile(parseOne(TinyKernel), Config).has_value());
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.bytes(), 0u);
  EXPECT_EQ(Cache.stats().Misses, 1u);
}

TEST(CompileCacheTest, OccupancyGaugesReportTheWholeCache) {
  MetricRegistry Metrics;
  CompileCacheConfig Geometry; // 8 shards.
  Geometry.MaxBytes = 0;
  Geometry.MaxEntries = Geometry.Shards; // One entry per shard.
  CompileCache Cache(Geometry, &Metrics);
  PipelineConfig Config = PipelineConfig::paperDefault();

  auto ExpectGaugesMatchStats = [&](const char *When) {
    CompileCacheStats Stats = Cache.stats();
    MetricSnapshot Snapshot = Metrics.snapshot();
    EXPECT_EQ(Snapshot.Gauges.at("bsched.engine.cache_entries"),
              static_cast<double>(Stats.Entries))
        << When;
    EXPECT_EQ(Snapshot.Gauges.at("bsched.engine.cache_bytes"),
              static_cast<double>(Stats.Bytes))
        << When;
  };

  // Twelve kernels over eight one-entry shards: inserts land in several
  // shards, and some evict.
  for (unsigned N = 0; N != 12; ++N) {
    ASSERT_TRUE(Cache.compile(parseOne(kernelVariant(N)), Config)
                    .has_value());
    ExpectGaugesMatchStats("after an insert");
  }
  EXPECT_GT(Cache.stats().Entries, 1u);
  EXPECT_GT(Cache.stats().Evictions, 0u);

  Cache.clear();
  ExpectGaugesMatchStats("after clear");
}

TEST(CompileCacheTest, OccupancyGaugesFollowTheLatestPublisher) {
  // An insert on one thread, then a clear() on another: the gauges must
  // read the empty cache, not the first thread's last value. Two fresh
  // threads get consecutive process-wide indices, so they would publish
  // into different shards of an 8-shard registry.
  MetricRegistry Metrics(8);
  CompileCache Cache(CompileCacheConfig::unlimited(), &Metrics);
  std::thread([&] {
    ASSERT_TRUE(Cache.compile(parseOne(TinyKernel),
                              PipelineConfig::paperDefault())
                    .has_value());
  }).join();
  ASSERT_EQ(Cache.stats().Entries, 1u);
  std::thread([&] { Cache.clear(); }).join();

  CompileCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Entries, 0u);
  MetricSnapshot Snapshot = Metrics.snapshot();
  EXPECT_EQ(Snapshot.Gauges.at("bsched.engine.cache_entries"),
            static_cast<double>(Stats.Entries));
  EXPECT_EQ(Snapshot.Gauges.at("bsched.engine.cache_bytes"),
            static_cast<double>(Stats.Bytes));
}

TEST(CompileCacheTest, ConcurrentHammeringStaysConsistent) {
  CompileCache Cache(CompileCacheConfig::unlimited());
  PipelineConfig Config = PipelineConfig::paperDefault();
  constexpr unsigned NumThreads = 4;
  constexpr unsigned PerThread = 32;
  constexpr unsigned Distinct = 4;

  std::vector<std::string> Sources;
  for (unsigned N = 0; N != Distinct; ++N)
    Sources.push_back(kernelVariant(N));

  std::atomic<unsigned> Failures{0};
  std::vector<unsigned> Instructions(Distinct, 0);
  {
    // Pre-compile serially to learn the expected per-kernel answer.
    for (unsigned N = 0; N != Distinct; ++N) {
      ErrorOr<CompiledFunction> R =
          Cache.compile(parseOne(Sources[N]), Config);
      ASSERT_TRUE(R.has_value());
      Instructions[N] = R->StaticInstructions;
    }
  }
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != PerThread; ++I) {
        unsigned N = (T + I) % Distinct;
        ErrorOr<CompiledFunction> R =
            Cache.compile(parseOne(Sources[N]), Config);
        if (!R.has_value() || R->StaticInstructions != Instructions[N])
          ++Failures;
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Failures.load(), 0u);
  CompileCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits + Stats.Misses,
            static_cast<uint64_t>(NumThreads) * PerThread + Distinct);
  EXPECT_EQ(Stats.Entries, Distinct);
}

//===----------------------------------------------------------------------===//
// The request core (no sockets).
//===----------------------------------------------------------------------===//

std::string compileRequestJson(const std::string &Id,
                               const std::string &Kernel,
                               bool WantSchedule = true) {
  CompileRequest Request;
  Request.Id = Id;
  Request.Kernel = Kernel;
  Request.WantSchedule = WantSchedule;
  return Request.toJson();
}

TEST(ServerCoreTest, CompileAndCacheHit) {
  BschedServer Server({});
  ErrorOr<CompileResponse> First = CompileResponse::fromJson(
      Server.handleRequest(compileRequestJson("a", TinyKernel)));
  ASSERT_TRUE(First.has_value()) << First.errorText();
  EXPECT_TRUE(First->Ok);
  EXPECT_EQ(First->Id, "a");
  EXPECT_FALSE(First->CacheHit);
  EXPECT_GT(First->StaticInstructions, 0u);
  EXPECT_FALSE(First->Schedule.empty());

  ErrorOr<CompileResponse> Second = CompileResponse::fromJson(
      Server.handleRequest(compileRequestJson("b", TinyKernel)));
  ASSERT_TRUE(Second.has_value());
  EXPECT_TRUE(Second->Ok);
  EXPECT_TRUE(Second->CacheHit);
  EXPECT_EQ(Second->StaticInstructions, First->StaticInstructions);
  EXPECT_EQ(Second->Schedule, First->Schedule);
  EXPECT_EQ(Server.requestsServed(), 2u);
}

TEST(ServerCoreTest, MalformedJsonIsStructuredNotFatal) {
  BschedServer Server({});
  ErrorOr<CompileResponse> Response =
      CompileResponse::fromJson(Server.handleRequest("this is not json"));
  ASSERT_TRUE(Response.has_value());
  EXPECT_FALSE(Response->Ok);
  ASSERT_FALSE(Response->Diags.empty());
  EXPECT_EQ(Response->Diags.front().Code, DiagCode::JsonParseError);
}

TEST(ServerCoreTest, BadKernelGetsParserDiagnostics) {
  BschedServer Server({});
  ErrorOr<CompileResponse> Response = CompileResponse::fromJson(
      Server.handleRequest(compileRequestJson("x", "not ir at all")));
  ASSERT_TRUE(Response.has_value());
  EXPECT_FALSE(Response->Ok);
  ASSERT_FALSE(Response->Diags.empty());
  EXPECT_EQ(Response->Diags.front().Code, DiagCode::ParseExpectedToken);
}

TEST(ServerCoreTest, InfiniteFrequencyIsAParseError) {
  // Accepted, it would answer ok:true with "dynamic_instructions":null,
  // which CompileResponse::fromJson cannot read back.
  BschedServer Server({});
  std::string Kernel = TinyKernel;
  const std::string Needle = "freq 1";
  Kernel.replace(Kernel.find(Needle), Needle.size(), "freq 1e400");
  ErrorOr<CompileResponse> Response = CompileResponse::fromJson(
      Server.handleRequest(compileRequestJson("inf", Kernel)));
  ASSERT_TRUE(Response.has_value());
  EXPECT_FALSE(Response->Ok);
  ASSERT_FALSE(Response->Diags.empty());
  EXPECT_EQ(Response->Diags.front().Code, DiagCode::ParseBadImmediate);
}

TEST(ServerCoreTest, PingEchoesId) {
  BschedServer Server({});
  CompileRequest Ping;
  Ping.Id = "liveness";
  Ping.Op = RequestOp::Ping;
  ErrorOr<CompileResponse> Response =
      CompileResponse::fromJson(Server.handleRequest(Ping.toJson()));
  ASSERT_TRUE(Response.has_value());
  EXPECT_TRUE(Response->Ok);
  EXPECT_EQ(Response->Id, "liveness");
}

TEST(ServerCoreTest, StatsReportsCacheAccounting) {
  BschedServer Server({});
  Server.handleRequest(compileRequestJson("a", TinyKernel));
  Server.handleRequest(compileRequestJson("b", TinyKernel));

  CompileRequest Stats;
  Stats.Id = "s";
  Stats.Op = RequestOp::Stats;
  std::string Raw = Server.handleRequest(Stats.toJson());
  ErrorOr<CompileResponse> Response = CompileResponse::fromJson(Raw);
  ASSERT_TRUE(Response.has_value());
  EXPECT_TRUE(Response->Ok);
  EXPECT_NE(Raw.find("\"hits\":1"), std::string::npos) << Raw;
  EXPECT_NE(Raw.find("\"misses\":1"), std::string::npos) << Raw;
  EXPECT_NE(Raw.find("\"requests_served\""), std::string::npos) << Raw;
}

TEST(ServerCoreTest, OperatorInstructionCeilingClampsRequests) {
  ServerConfig Config;
  Config.MaxInstructionsPerBlock = 2; // Admission: nothing real fits.
  BschedServer Server(Config);
  ErrorOr<CompileResponse> Response = CompileResponse::fromJson(
      Server.handleRequest(compileRequestJson("big", TinyKernel)));
  ASSERT_TRUE(Response.has_value());
  EXPECT_FALSE(Response->Ok);
  ASSERT_FALSE(Response->Diags.empty());
  EXPECT_EQ(Response->Diags.front().Code, DiagCode::GovernorBlockTooLarge);
}

TEST(ServerCoreTest, HugeLatenciesAndRegisterFilesRejectedAtOnce) {
  // Each of these used to hold a worker for seconds or exhaust the heap;
  // validation now answers BS500 before any compile work starts.
  BschedServer Server({});
  for (const char *Config :
       {R"({"policy":"traditional","optimistic_latency":1e9})",
        R"({"policy":"traditional","optimistic_latency":1e400})",
        R"({"op_latencies":{"fadd":1e400}})",
        R"({"target":{"int_regs":4000000000}})",
        R"({"target":{"fp_regs":100000000}})",
        R"({"target":{"spill_pool_size":4294967295}})",
        R"({"budget":{"deadline_ms":-5}})",
        R"({"budget":{"deadline_ms":1e400}})",
        R"({"optimistic_latency":-3})"}) {
    JsonWriter Request;
    Request.beginObject();
    Request.key("schema_version").value(CompileRequest::SchemaVersion);
    Request.key("id").value("hostile");
    Request.key("kernel").value(TinyKernel);
    Request.key("config").rawValue(Config);
    Request.endObject();

    const auto Start = std::chrono::steady_clock::now();
    ErrorOr<CompileResponse> Response =
        CompileResponse::fromJson(Server.handleRequest(Request.str()));
    const double Seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - Start)
                               .count();
    ASSERT_TRUE(Response.has_value()) << Config;
    EXPECT_FALSE(Response->Ok) << Config;
    ASSERT_FALSE(Response->Diags.empty()) << Config;
    EXPECT_EQ(Response->Diags.front().Code, DiagCode::PipelineBadConfig)
        << Config;
    EXPECT_LT(Seconds, 1.0) << Config;
  }
}

TEST(ServerCoreTest, MultiFunctionKernelRejected) {
  BschedServer Server({});
  std::string Two = std::string(TinyKernel) + TinyKernel;
  ErrorOr<CompileResponse> Response = CompileResponse::fromJson(
      Server.handleRequest(compileRequestJson("two", Two)));
  ASSERT_TRUE(Response.has_value());
  EXPECT_FALSE(Response->Ok);
  ASSERT_FALSE(Response->Diags.empty());
  EXPECT_EQ(Response->Diags.front().Code, DiagCode::ParseNotSingleFunction);
}

TEST(ServerCoreTest, WantMetricsReturnsSnapshot) {
  BschedServer Server({});
  CompileRequest Request;
  Request.Id = "m";
  Request.Kernel = TinyKernel;
  Request.WantSchedule = false;
  Request.WantMetrics = true;
  std::string Raw = Server.handleRequest(Request.toJson());
  EXPECT_NE(Raw.find("\"stats\""), std::string::npos) << Raw;
  EXPECT_NE(Raw.find("bsched.pipeline"), std::string::npos) << Raw;
}

TEST(ServerCoreTest, WantMetricsCountsOnlyTheCompileThatRan) {
  BschedServer Server({});
  CompileRequest Request;
  Request.Id = "m";
  Request.Kernel = TinyKernel;
  Request.WantSchedule = false;
  Request.WantMetrics = true;
  std::string Miss = Server.handleRequest(Request.toJson());
  std::string Hit = Server.handleRequest(Request.toJson());

  // Whether the response's stats counted a pipeline compile.
  auto CountsKernels = [](const std::string &Raw) {
    ErrorOr<JsonValue> Doc = parseJson(Raw);
    EXPECT_TRUE(Doc.has_value()) << Raw;
    const JsonValue *Stats = Doc ? Doc->find("stats") : nullptr;
    EXPECT_NE(Stats, nullptr) << Raw;
    const JsonValue *Counters = Stats ? Stats->find("counters") : nullptr;
    return Counters && Counters->find("bsched.pipeline.kernels");
  };
  EXPECT_NE(Miss.find("\"cache_hit\":false"), std::string::npos) << Miss;
  EXPECT_NE(Hit.find("\"cache_hit\":true"), std::string::npos) << Hit;
  // A hit runs no compile, so its snapshot counts none.
  EXPECT_FALSE(CountsKernels(Hit)) << Hit;
  EXPECT_TRUE(CountsKernels(Miss)) << Miss;
}

TEST(ServerCoreTest, SerialEqualsConcurrent) {
  // The same corpus through one server serially and another concurrently
  // must produce identical stable fields (compilation is deterministic;
  // only cache_hit and wall_ms may differ).
  constexpr unsigned Distinct = 4;
  constexpr unsigned Requests = 32;
  std::vector<std::string> Corpus;
  for (unsigned I = 0; I != Requests; ++I)
    Corpus.push_back(compileRequestJson("r" + std::to_string(I),
                                        kernelVariant(I % Distinct)));

  auto StableFields = [](const std::string &Raw) {
    ErrorOr<CompileResponse> R = CompileResponse::fromJson(Raw);
    EXPECT_TRUE(R.has_value());
    return R->Id + "|" + (R->Ok ? "ok" : "fail") + "|" +
           std::to_string(R->StaticInstructions) + "|" +
           std::to_string(R->StaticSpills) + "|" + R->Schedule;
  };

  BschedServer Serial({});
  std::map<std::string, std::string> Expected;
  for (const std::string &Request : Corpus) {
    std::string Key = StableFields(Serial.handleRequest(Request));
    Expected[Key.substr(0, Key.find('|'))] = Key;
  }

  BschedServer Concurrent({});
  std::vector<std::string> Got(Corpus.size());
  std::vector<std::thread> Threads;
  std::atomic<unsigned> NextIndex{0};
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&] {
      for (unsigned I; (I = NextIndex.fetch_add(1)) < Corpus.size();)
        Got[I] = StableFields(Concurrent.handleRequest(Corpus[I]));
    });
  for (std::thread &T : Threads)
    T.join();

  for (const std::string &Key : Got) {
    std::string Id = Key.substr(0, Key.find('|'));
    EXPECT_EQ(Key, Expected[Id]);
  }
}

//===----------------------------------------------------------------------===//
// Stdio transport.
//===----------------------------------------------------------------------===//

TEST(ServerStdioTest, ServesNewlineDelimitedRequests) {
  std::FILE *In = std::tmpfile();
  std::FILE *Out = std::tmpfile();
  ASSERT_NE(In, nullptr);
  ASSERT_NE(Out, nullptr);

  std::string Lines = compileRequestJson("a", TinyKernel, false) + "\n" +
                      "\n" + // Blank lines are skipped, not errors.
                      "garbage\n" +
                      compileRequestJson("b", TinyKernel, false) + "\n";
  std::fwrite(Lines.data(), 1, Lines.size(), In);
  std::rewind(In);

  BschedServer Server({});
  EXPECT_EQ(Server.serveLines(In, Out), 3u);

  std::rewind(Out);
  std::vector<std::string> Responses;
  char Buffer[1 << 16];
  while (std::fgets(Buffer, sizeof(Buffer), Out)) {
    std::string Line(Buffer);
    if (!Line.empty() && Line.back() == '\n')
      Line.pop_back();
    Responses.push_back(Line);
  }
  ASSERT_EQ(Responses.size(), 3u);
  ErrorOr<CompileResponse> A = CompileResponse::fromJson(Responses[0]);
  ASSERT_TRUE(A.has_value());
  EXPECT_TRUE(A->Ok);
  EXPECT_EQ(A->Id, "a");
  ErrorOr<CompileResponse> Bad = CompileResponse::fromJson(Responses[1]);
  ASSERT_TRUE(Bad.has_value());
  EXPECT_FALSE(Bad->Ok);
  ErrorOr<CompileResponse> B = CompileResponse::fromJson(Responses[2]);
  ASSERT_TRUE(B.has_value());
  EXPECT_TRUE(B->CacheHit); // Same kernel as "a": the shared cache answered.

  std::fclose(In);
  std::fclose(Out);
}

//===----------------------------------------------------------------------===//
// The real socket path.
//===----------------------------------------------------------------------===//

class SocketServerTest : public ::testing::Test {
protected:
  void SetUp() override {
    char Template[] = "/tmp/bsched_test_XXXXXX";
    ASSERT_NE(mkdtemp(Template), nullptr);
    Dir = Template;
    Config.SocketPath = Dir + "/srv.sock";
  }

  void TearDown() override {
    unlink(Config.SocketPath.c_str());
    rmdir(Dir.c_str());
  }

  /// One request/response exchange over a fresh connection.
  ErrorOr<CompileResponse> roundTrip(const std::string &Request) {
    ErrorOr<FdHandle> Conn = connectUnix(Config.SocketPath);
    if (!Conn)
      return Conn.takeErrors();
    if (!writeFrame(Conn->get(), Request).ok())
      return Diagnostic{0, 0, "write failed", Severity::Error,
                        DiagCode::WireIo};
    std::string Payload;
    if (readFrame(Conn->get(), Payload, DefaultMaxFrameBytes, nullptr) !=
        FrameStatus::Frame)
      return Diagnostic{0, 0, "no response frame", Severity::Error,
                        DiagCode::WireIo};
    return CompileResponse::fromJson(Payload);
  }

  std::string Dir;
  ServerConfig Config;
};

TEST_F(SocketServerTest, StartServeStop) {
  BschedServer Server(Config);
  ASSERT_TRUE(Server.start().ok());

  ErrorOr<CompileResponse> Response =
      roundTrip(compileRequestJson("s1", TinyKernel));
  ASSERT_TRUE(Response.has_value()) << Response.errorText();
  EXPECT_TRUE(Response->Ok);
  EXPECT_EQ(Response->Id, "s1");

  Server.stop();
  // After stop the listener is gone: connect must fail (quickly).
  EXPECT_FALSE(connectUnix(Config.SocketPath, /*RetryMs=*/50).has_value());
}

TEST_F(SocketServerTest, StopIsIdempotentAndRestartable) {
  BschedServer Server(Config);
  ASSERT_TRUE(Server.start().ok());
  Server.stop();
  Server.stop(); // Second stop: no deadlock, no crash.
}

TEST_F(SocketServerTest, OversizedFrameAnsweredWithBS905) {
  // Big enough for real requests, small enough to reject hostile ones.
  Config.MaxFrameBytes = 4096;
  BschedServer Server(Config);
  ASSERT_TRUE(Server.start().ok());

  ErrorOr<FdHandle> Conn = connectUnix(Config.SocketPath);
  ASSERT_TRUE(Conn.has_value());
  std::string Huge(8192, 'x'); // Over the ceiling.
  ASSERT_TRUE(writeFrame(Conn->get(), Huge).ok());

  std::string Payload;
  ASSERT_EQ(readFrame(Conn->get(), Payload, DefaultMaxFrameBytes, nullptr),
            FrameStatus::Frame);
  ErrorOr<CompileResponse> Response = CompileResponse::fromJson(Payload);
  ASSERT_TRUE(Response.has_value());
  EXPECT_FALSE(Response->Ok);
  ASSERT_FALSE(Response->Diags.empty());
  EXPECT_EQ(Response->Diags.front().Code, DiagCode::WireFrameTooLarge);

  // The connection closes after the error (stream out of sync). The
  // server never read the oversized payload, so the close may surface as
  // a reset (Error) instead of a clean EOF — either way, no more frames.
  EXPECT_NE(readFrame(Conn->get(), Payload, DefaultMaxFrameBytes, nullptr),
            FrameStatus::Frame);
  // ... but the daemon is fine: a new connection compiles normally.
  ErrorOr<CompileResponse> Next =
      roundTrip(compileRequestJson("after", TinyKernel));
  ASSERT_TRUE(Next.has_value());
  EXPECT_TRUE(Next->Ok);
  Server.stop();
}

TEST_F(SocketServerTest, TruncatedFrameDoesNotKillTheDaemon) {
  BschedServer Server(Config);
  ASSERT_TRUE(Server.start().ok());
  {
    // Two bytes of length prefix, then vanish mid-frame.
    ErrorOr<FdHandle> Conn = connectUnix(Config.SocketPath);
    ASSERT_TRUE(Conn.has_value());
    const unsigned char Partial[2] = {0x00, 0x00};
    ASSERT_EQ(::send(Conn->get(), Partial, sizeof(Partial), MSG_NOSIGNAL),
              2);
  } // FdHandle closes the socket here.

  ErrorOr<CompileResponse> Response =
      roundTrip(compileRequestJson("alive", TinyKernel));
  ASSERT_TRUE(Response.has_value()) << Response.errorText();
  EXPECT_TRUE(Response->Ok);
  Server.stop();
}

TEST_F(SocketServerTest, ShutdownAnswersInFlightRequests) {
  BschedServer Server(Config);
  ASSERT_TRUE(Server.start().ok());

  // A deliberately large kernel so the compile is still in flight when
  // stop() lands: shutdown half-closes the connection for reading but
  // must let the in-flight response out.
  std::string Big = "func @big {\nblock body freq 1 {\n  %i0 = li 8\n";
  for (unsigned I = 0; I != 600; ++I)
    Big += "  %f" + std::to_string(I % 14) + " = fload [%i0 + " +
           std::to_string(8 * I) + "] !a\n";
  Big += "  ret\n}\n}\n";

  ErrorOr<FdHandle> Conn = connectUnix(Config.SocketPath);
  ASSERT_TRUE(Conn.has_value());
  ASSERT_TRUE(writeFrame(Conn->get(), compileRequestJson("inflight", Big,
                                                         /*WantSchedule=*/
                                                         false))
                  .ok());
  std::thread Stopper([&] { Server.stop(); });

  std::string Payload;
  FrameStatus Status =
      readFrame(Conn->get(), Payload, DefaultMaxFrameBytes, nullptr);
  Stopper.join();

  // Three legitimate outcomes, none of them a crash, hang or dropped
  // frame: the compile was in flight and completes (ok:true); the server
  // read the request after Stopping was set and refused it with a
  // structured BS908; or stop's half-close won before the request was
  // read at all (EOF).
  if (Status == FrameStatus::Frame) {
    ErrorOr<CompileResponse> Response = CompileResponse::fromJson(Payload);
    ASSERT_TRUE(Response.has_value());
    EXPECT_EQ(Response->Id, "inflight");
    if (!Response->Ok) {
      ASSERT_FALSE(Response->Diags.empty());
      EXPECT_EQ(Response->Diags.front().Code, DiagCode::ServerShutdown);
    }
  } else {
    EXPECT_EQ(Status, FrameStatus::Eof);
  }
}

TEST_F(SocketServerTest, ConcurrentConnectionsShareTheCache) {
  MetricRegistry Metrics;
  BschedServer Server(Config, &Metrics);
  ASSERT_TRUE(Server.start().ok());

  constexpr unsigned NumClients = 8;
  constexpr unsigned PerClient = 8;
  std::atomic<unsigned> OkCount{0};
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C != NumClients; ++C)
    Clients.emplace_back([&, C] {
      ErrorOr<FdHandle> Conn = connectUnix(Config.SocketPath);
      if (!Conn)
        return;
      std::string Payload;
      for (unsigned I = 0; I != PerClient; ++I) {
        std::string Request = compileRequestJson(
            "c" + std::to_string(C) + "_" + std::to_string(I),
            kernelVariant(I % 2), /*WantSchedule=*/false);
        if (!writeFrame(Conn->get(), Request).ok())
          return;
        if (readFrame(Conn->get(), Payload, DefaultMaxFrameBytes, nullptr) !=
            FrameStatus::Frame)
          return;
        ErrorOr<CompileResponse> R = CompileResponse::fromJson(Payload);
        if (R.has_value() && R->Ok)
          ++OkCount;
      }
    });
  for (std::thread &T : Clients)
    T.join();
  Server.stop();

  EXPECT_EQ(OkCount.load(), NumClients * PerClient);
  // Two distinct kernels across 64 requests: the shared cache carried the
  // bulk of the load. The cache deliberately drops its shard lock during a
  // compile, so concurrent first requests for the same kernel may each
  // miss (a bounded thundering herd) — misses are at least one per kernel,
  // at most one per client per kernel, and every other request hit.
  CompileCacheStats Stats = Server.cache().stats();
  EXPECT_GE(Stats.Misses, 2u);
  EXPECT_LE(Stats.Misses, 2u * NumClients);
  EXPECT_EQ(Stats.Hits + Stats.Misses, NumClients * PerClient);
  EXPECT_EQ(Stats.Entries, 2u);
}

//===----------------------------------------------------------------------===//
// Telemetry: request correlation, per-op latency accounting, the metrics
// op, and the flight-recorder dump path (DESIGN.md §3l).
//===----------------------------------------------------------------------===//

/// Points Logger::global() at a tmpfile for one test and restores the
/// detached default afterwards (the global logger outlives every test).
class ScopedGlobalSink {
public:
  explicit ScopedGlobalSink(LogLevel Level) : File(std::tmpfile()) {
    Logger::global().setSink(File);
    Logger::global().setLevel(Level);
  }
  ~ScopedGlobalSink() {
    Logger::global().closeSink();
    Logger::global().setLevel(LogLevel::Info);
    if (File)
      std::fclose(File);
  }

  std::vector<std::string> lines() {
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
    return Lines;
  }

private:
  std::FILE *File;
};

TEST(ServerTelemetryTest, GeneratesRequestIdWhenClientOmitsIt) {
  BschedServer Server({});
  CompileRequest Ping;
  Ping.Op = RequestOp::Ping; // No id.
  ErrorOr<CompileResponse> First =
      CompileResponse::fromJson(Server.handleRequest(Ping.toJson()));
  ASSERT_TRUE(First.has_value());
  EXPECT_EQ(First->Id.rfind("srv-", 0), 0u) << First->Id;

  ErrorOr<CompileResponse> Second =
      CompileResponse::fromJson(Server.handleRequest(Ping.toJson()));
  ASSERT_TRUE(Second.has_value());
  EXPECT_EQ(Second->Id.rfind("srv-", 0), 0u);
  EXPECT_NE(Second->Id, First->Id); // Ids are unique per request.

  // A client-supplied id is echoed untouched.
  ErrorOr<CompileResponse> Echoed = CompileResponse::fromJson(
      Server.handleRequest(compileRequestJson("mine", TinyKernel)));
  ASSERT_TRUE(Echoed.has_value());
  EXPECT_EQ(Echoed->Id, "mine");

  // Even an unparseable payload gets a generated id: the error response
  // must still carry a key the operator can correlate with the log.
  ErrorOr<CompileResponse> Bad =
      CompileResponse::fromJson(Server.handleRequest("not json"));
  ASSERT_TRUE(Bad.has_value());
  EXPECT_FALSE(Bad->Ok);
  EXPECT_EQ(Bad->Id.rfind("srv-", 0), 0u) << Bad->Id;
}

TEST(ServerTelemetryTest, MetricsOpReturnsJsonAndPrometheus) {
  BschedServer Server({});
  Server.handleRequest(compileRequestJson("warm", TinyKernel));

  CompileRequest Json;
  Json.Id = "m1";
  Json.Op = RequestOp::Metrics;
  std::string RawJson = Server.handleRequest(Json.toJson());
  // The snapshot rides in the response's raw "stats" field (opaque to the
  // client-side struct, so inspect the document itself).
  ErrorOr<JsonValue> JsonDoc = parseJson(RawJson);
  ASSERT_TRUE(JsonDoc.has_value()) << RawJson;
  EXPECT_TRUE(JsonDoc->find("ok")->asBool());
  const JsonValue *Snapshot = JsonDoc->find("stats");
  ASSERT_NE(Snapshot, nullptr);
  ASSERT_TRUE(Snapshot->isObject());
  EXPECT_NE(Snapshot->find("counters"), nullptr);

  CompileRequest Prom;
  Prom.Id = "m2";
  Prom.Op = RequestOp::Metrics;
  Prom.MetricsFormat = "prometheus";
  ErrorOr<CompileResponse> PromResp =
      CompileResponse::fromJson(Server.handleRequest(Prom.toJson()));
  ASSERT_TRUE(PromResp.has_value());
  EXPECT_TRUE(PromResp->Ok);
  ASSERT_NE(Snapshot->find("counters")->find("bsched.server.requests"),
            nullptr);
  EXPECT_NE(PromResp->MetricsText.find("# TYPE bsched_server_requests "
                                       "counter"),
            std::string::npos)
      << PromResp->MetricsText;
  EXPECT_NE(PromResp->MetricsText.find(
                "bsched_server_latency_us_compile_bucket{le=\"+Inf\"}"),
            std::string::npos);
}

TEST(ServerTelemetryTest, StatsReportPerOpLatencyQuantiles) {
  BschedServer Server({});
  for (int I = 0; I != 8; ++I) {
    CompileRequest Ping;
    Ping.Op = RequestOp::Ping;
    Server.handleRequest(Ping.toJson());
  }
  CompileRequest Stats;
  Stats.Id = "s";
  Stats.Op = RequestOp::Stats;
  std::string Raw = Server.handleRequest(Stats.toJson());
  ErrorOr<JsonValue> Doc = parseJson(Raw);
  ASSERT_TRUE(Doc.has_value()) << Raw;
  ASSERT_NE(Doc->find("stats"), nullptr);
  const JsonValue *Latency = Doc->find("stats")->find("latency_us");
  ASSERT_NE(Latency, nullptr);
  ASSERT_TRUE(Latency->isObject());
  for (const char *Op : {"compile", "stats", "metrics", "ping", "invalid"})
    ASSERT_NE(Latency->find(Op), nullptr) << Op;
  const JsonValue *Ping = Latency->find("ping");
  EXPECT_EQ(Ping->find("count")->asNumber(), 8.0);
  const double P50 = Ping->find("p50")->asNumber();
  const double P99 = Ping->find("p99")->asNumber();
  EXPECT_GT(P50, 0.0);
  EXPECT_LE(P50, P99);
  EXPECT_LE(P99, Ping->find("max")->asNumber());
  EXPECT_GE(P50, Ping->find("min")->asNumber());
}

TEST(ServerTelemetryTest, ServerQuantilesAgreeWithClientSide) {
  // The acceptance contract: bucket-estimated server quantiles must land
  // within one log-spaced bucket (a factor of two) of the client-visible
  // exact percentiles over the same requests, at concurrency 8. The
  // client-side reference is each response's own wall_ms — the exact
  // samples the histogram recorded, which the loadgen also collects —
  // so the comparison isolates bucket interpolation and is immune to the
  // scheduling noise a loaded ctest run adds to wall-clock stamps taken
  // around handleRequest.
  BschedServer Server({});
  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 8;
  std::vector<std::vector<double>> PerThreadUs(Threads);
  std::vector<std::thread> Workers;
  std::atomic<unsigned> BadResponses{0};
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      for (unsigned I = 0; I != PerThread; ++I) {
        std::string Request = compileRequestJson(
            "q" + std::to_string(T) + "_" + std::to_string(I),
            kernelVariant(T), /*WantSchedule=*/false);
        ErrorOr<CompileResponse> Response =
            CompileResponse::fromJson(Server.handleRequest(Request));
        if (!Response) {
          ++BadResponses;
          continue;
        }
        PerThreadUs[T].push_back(Response->WallMs * 1000.0);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  ASSERT_EQ(BadResponses.load(), 0u);

  std::vector<double> ClientUs;
  for (const std::vector<double> &Thread : PerThreadUs)
    ClientUs.insert(ClientUs.end(), Thread.begin(), Thread.end());
  std::sort(ClientUs.begin(), ClientUs.end());

  CompileRequest Stats;
  Stats.Op = RequestOp::Stats;
  ErrorOr<JsonValue> Doc = parseJson(Server.handleRequest(Stats.toJson()));
  ASSERT_TRUE(Doc.has_value());
  const JsonValue *Compile =
      Doc->find("stats")->find("latency_us")->find("compile");
  ASSERT_NE(Compile, nullptr);
  ASSERT_EQ(Compile->find("count")->asNumber(), double(Threads * PerThread));

  constexpr double SlackUs = 50.0; // wall_ms is serialized at 1us grain.
  const size_t N = ClientUs.size();
  for (auto [Key, Q] : {std::pair<const char *, double>{"p50", 0.50},
                        {"p90", 0.90},
                        {"p99", 0.99}}) {
    const double ServerEst = Compile->find(Key)->asNumber();
    // The estimate interpolates inside the power-of-two bucket holding
    // the target order statistic; percentile() instead interpolates
    // *between* the two bracketing order statistics, which an extreme
    // outlier can pull arbitrarily far from either. The guaranteed bound
    // is therefore factor-two against the bracket itself.
    const double Lo = ClientUs[static_cast<size_t>(double(N - 1) * Q)];
    const double Hi =
        ClientUs[static_cast<size_t>(std::ceil(double(N - 1) * Q))];
    EXPECT_LE(ServerEst, 2.0 * Hi + SlackUs)
        << Key << ": server " << ServerEst << " bracket [" << Lo << ", "
        << Hi << "]";
    EXPECT_LE(Lo, 2.0 * ServerEst + SlackUs)
        << Key << ": server " << ServerEst << " bracket [" << Lo << ", "
        << Hi << "]";
    // Sanity: the exact interpolated percentile lies inside the bracket.
    const double Exact = percentile(ClientUs, Q);
    EXPECT_GE(Exact, Lo);
    EXPECT_LE(Exact, Hi);
  }
}

TEST(ServerTelemetryTest, InjectedFaultDumpsFlightRecorder) {
  // The chaos acceptance path: an armed BS810 fail point must leave a
  // parseable flight-recorder dump in the log naming the failing site and
  // the request id.
  FlightRecorder::global().clear();
  ScopedGlobalSink Sink(LogLevel::Error);
  ScopedFailPoint Arm(failpoints::RegAlloc, 1.0, 42);

  BschedServer Server({});
  ErrorOr<CompileResponse> Response = CompileResponse::fromJson(
      Server.handleRequest(compileRequestJson("doomed", TinyKernel)));
  ASSERT_TRUE(Response.has_value());
  EXPECT_FALSE(Response->Ok);
  ASSERT_FALSE(Response->Diags.empty());
  EXPECT_EQ(Response->Diags.front().Code, DiagCode::InjectedFault);

  const JsonValue *DumpLine = nullptr;
  std::vector<std::string> Lines = Sink.lines();
  std::vector<ErrorOr<JsonValue>> Parsed;
  Parsed.reserve(Lines.size()); // DumpLine points into Parsed.
  for (const std::string &Line : Lines) {
    Parsed.push_back(parseJson(Line));
    ASSERT_TRUE(Parsed.back().has_value()) << Line;
    if (Parsed.back()->find("msg")->asString() == "flight-recorder dump")
      DumpLine = &*Parsed.back();
  }
  ASSERT_NE(DumpLine, nullptr);
  const JsonValue *Fields = DumpLine->find("fields");
  EXPECT_EQ(Fields->find("request_id")->asString(), "doomed");
  EXPECT_EQ(Fields->find("trigger")->asString(), "BS810");

  // The embedded dump is itself valid JSON whose ring contains the
  // failure event: id, code, and the failing site by name.
  const JsonValue *Dump = Fields->find("dump")->find("flight_recorder");
  ASSERT_NE(Dump, nullptr);
  EXPECT_EQ(Dump->find("trigger")->asString(), "BS810");
  bool FoundFailure = false;
  for (const JsonValue &Event : Dump->find("events")->elements()) {
    if (Event.find("msg")->asString() != "request failed")
      continue;
    FoundFailure = true;
    const JsonValue *EventFields = Event.find("fields");
    EXPECT_EQ(EventFields->find("request_id")->asString(), "doomed");
    EXPECT_EQ(EventFields->find("code")->asString(), "BS810");
    EXPECT_NE(EventFields->find("message")->asString().find("regalloc"),
              std::string::npos);
  }
  EXPECT_TRUE(FoundFailure);
}

TEST(ServerTelemetryTest, SlowRequestsLogTheSpanTree) {
  ScopedGlobalSink Sink(LogLevel::Warn);
  ServerConfig Config;
  Config.SlowRequestMs = 1e-6; // Everything is an outlier.
  BschedServer Server(Config);
  Server.handleRequest(compileRequestJson("laggard", TinyKernel));

  bool FoundSlow = false;
  for (const std::string &Line : Sink.lines()) {
    ErrorOr<JsonValue> Event = parseJson(Line);
    ASSERT_TRUE(Event.has_value()) << Line;
    if (Event->find("msg")->asString() != "slow request")
      continue;
    FoundSlow = true;
    const JsonValue *Fields = Event->find("fields");
    EXPECT_EQ(Fields->find("request_id")->asString(), "laggard");
    EXPECT_EQ(Fields->find("op")->asString(), "compile");
    EXPECT_GT(Fields->find("wall_ms")->asNumber(), 0.0);
    // The span tree rode along: a Chrome-trace document with the
    // pipeline's phase spans for exactly this request.
    const JsonValue *Trace = Fields->find("trace");
    ASSERT_NE(Trace, nullptr);
    ASSERT_TRUE(Trace->find("traceEvents")->isArray());
    EXPECT_FALSE(Trace->find("traceEvents")->elements().empty());
  }
  EXPECT_TRUE(FoundSlow);
}

} // namespace
