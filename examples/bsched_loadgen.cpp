//===- examples/bsched_loadgen.cpp - Compile-service load generator -------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// Drives a running bsched_server with concurrent compile traffic and
// reports throughput and latency percentiles. Kernels are generated from
// the workload patterns (the same generator the fuzz harness uses), and a
// bounded kernel pool means repeated requests exercise the daemon's
// shared compile cache — a warm run must show cache hits.
//
// Run:
//   bsched_loadgen --connect /tmp/bsched.sock [--requests N]
//                  [--concurrency C] [--kernels K] [--seed S]
//                  [--chaos] [--json-out FILE]
//
// --chaos byte-mutates a quarter of the kernels before sending (the fuzz
// corpus as traffic): the server must answer every one with a structured
// response — ok or diagnostics — and never drop the connection.
//
// Exit 0 when every request got a response; 1 on transport failures.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"
#include "support/CliOptions.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/Socket.h"
#include "support/Wire.h"
#include "workload/KernelGen.h"

#include "ir/IrPrinter.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace bsched;

namespace {

/// A random straight-line kernel from the workload patterns (the fuzz
/// harness's generator, minus the esoteric shapes that dwarf the rest).
Function makeKernel(Rng &R, unsigned Index) {
  Function F("load" + std::to_string(Index));
  BasicBlock &BB =
      F.addBlock("body", 1.0 + static_cast<double>(R.nextBounded(1000)));
  KernelContext Ctx(F, BB, /*FortranAliasing=*/R.nextBernoulli(0.5),
                    R.nextUInt64());
  unsigned NumPatterns = 1 + static_cast<unsigned>(R.nextBounded(2));
  for (unsigned P = 0; P != NumPatterns; ++P) {
    unsigned Iters = 1 + static_cast<unsigned>(R.nextBounded(4));
    switch (R.nextBounded(5)) {
    case 0:
      emitStencil1D(Ctx, "a", "b", 2 + R.nextBounded(3), Iters);
      break;
    case 1:
      emitDotProduct(Ctx, "x", "y", "dot", Iters);
      break;
    case 2:
      emitInteraction(Ctx, "pos", "frc", Iters);
      break;
    case 3:
      emitRecurrence(Ctx, "co", "rec", 1 + R.nextBounded(6));
      break;
    default:
      emitScalarSoup(Ctx, "soup", 1 + R.nextBounded(4), 1 + R.nextBounded(4));
      break;
    }
  }
  Ctx.builder().emitRet();
  return F;
}

/// Byte-level mutation for --chaos (the fuzz harness's alphabet).
constexpr char MutationPool[] = "abcdefghijklmnopqrstuvwxyz"
                                "0123456789"
                                "%$@!#{}[]()+-*/=,.;<>_ \t\n";

std::string mutateText(std::string Text, Rng &R) {
  unsigned NumEdits = 1 + static_cast<unsigned>(R.nextBounded(8));
  for (unsigned E = 0; E != NumEdits && !Text.empty(); ++E) {
    size_t At = static_cast<size_t>(R.nextBounded(Text.size()));
    char C = MutationPool[R.nextBounded(sizeof(MutationPool) - 1)];
    switch (R.nextBounded(3)) {
    case 0:
      Text[At] = C;
      break;
    case 1:
      Text.erase(At, 1);
      break;
    default:
      Text.insert(At, 1, C);
      break;
    }
  }
  return Text;
}

struct WorkerResult {
  std::vector<double> LatenciesMs;
  /// The server's own wall_ms per response: the exact samples behind its
  /// latency histogram, so quantile cross-checks compare like with like
  /// (client round-trip time additionally carries queueing + transport).
  std::vector<double> ServerWallMs;
  uint64_t Ok = 0;
  uint64_t StructuredErrors = 0; ///< ok:false but a well-formed response.
  uint64_t CacheHits = 0;
  uint64_t TransportFailures = 0;
};

} // namespace

int main(int argc, char **argv) {
  std::string SocketPath;
  uint64_t Requests = 256;
  unsigned Concurrency = 8;
  unsigned Kernels = 8;
  uint64_t Seed = 0xB5C0FFEEULL;
  bool Chaos = false;
  std::string JsonOut;

  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    constexpr uint64_t MaxUnsigned = std::numeric_limits<unsigned>::max();
    uint64_t N = 0;
    const char *V = nullptr;
    if (Arg == "--connect" && (V = Value())) {
      SocketPath = V;
    } else if (Arg == "--requests" && (V = Value()) && parseCount(V, N)) {
      Requests = N;
    } else if (Arg == "--concurrency" && (V = Value()) &&
               parseCount(V, N, MaxUnsigned) && N != 0) {
      Concurrency = static_cast<unsigned>(N);
    } else if (Arg == "--kernels" && (V = Value()) &&
               parseCount(V, N, MaxUnsigned) && N != 0) {
      Kernels = static_cast<unsigned>(N);
    } else if (Arg == "--seed" && (V = Value()) && parseCount(V, N)) {
      Seed = N;
    } else if (Arg == "--chaos") {
      Chaos = true;
    } else if (Arg == "--json-out" && (V = Value())) {
      JsonOut = V;
    } else {
      std::fprintf(stderr,
                   "usage: %s --connect PATH [--requests N] "
                   "[--concurrency C] [--kernels K] [--seed S] [--chaos] "
                   "[--json-out FILE]\n",
                   argv[0]);
      return 1;
    }
  }
  if (SocketPath.empty()) {
    std::fprintf(stderr, "error: --connect PATH is required\n");
    return 1;
  }

  // The request corpus: K distinct kernels, pre-rendered to request JSON
  // so the send loop measures the server, not the generator. With --chaos
  // a quarter of them are byte-mutated — still framed correctly, so the
  // server sees syntactically valid requests carrying hostile kernels.
  Rng Root(Seed);
  std::vector<std::string> Corpus;
  Corpus.reserve(Kernels);
  for (unsigned K = 0; K != Kernels; ++K) {
    Rng R = Root.split(K);
    CompileRequest Request;
    Request.Id = "k" + std::to_string(K);
    Request.Kernel = printFunction(makeKernel(R, K));
    if (Chaos && K % 4 == 0)
      Request.Kernel = mutateText(Request.Kernel, R);
    Request.WantSchedule = false;
    Corpus.push_back(Request.toJson());
  }

  std::vector<WorkerResult> Results(Concurrency);
  std::atomic<uint64_t> Next{0};
  const auto Start = std::chrono::steady_clock::now();

  std::vector<std::thread> Workers;
  Workers.reserve(Concurrency);
  for (unsigned W = 0; W != Concurrency; ++W)
    Workers.emplace_back([&, W] {
      WorkerResult &Out = Results[W];
      // Every worker holds its own connection open for its whole share:
      // --concurrency C really is C concurrent in-flight requests.
      ErrorOr<FdHandle> Conn = connectUnix(SocketPath, /*RetryMs=*/5000);
      if (!Conn) {
        ++Out.TransportFailures;
        return;
      }
      std::string Payload;
      for (uint64_t R; (R = Next.fetch_add(1)) < Requests;) {
        const std::string &Request = Corpus[R % Corpus.size()];
        const auto T0 = std::chrono::steady_clock::now();
        if (!writeFrame(Conn->get(), Request).ok()) {
          ++Out.TransportFailures;
          return;
        }
        if (readFrame(Conn->get(), Payload, DefaultMaxFrameBytes, nullptr) !=
            FrameStatus::Frame) {
          ++Out.TransportFailures;
          return;
        }
        const auto T1 = std::chrono::steady_clock::now();
        Out.LatenciesMs.push_back(
            std::chrono::duration<double, std::milli>(T1 - T0).count());
        ErrorOr<CompileResponse> Response = CompileResponse::fromJson(Payload);
        if (!Response) {
          ++Out.TransportFailures;
          continue;
        }
        if (Response->Ok)
          ++Out.Ok;
        else
          ++Out.StructuredErrors;
        Out.CacheHits += Response->CacheHit;
        Out.ServerWallMs.push_back(Response->WallMs);
      }
    });
  for (std::thread &T : Workers)
    T.join();
  const auto End = std::chrono::steady_clock::now();
  const double WallMs =
      std::chrono::duration<double, std::milli>(End - Start).count();

  WorkerResult Total;
  for (const WorkerResult &R : Results) {
    Total.Ok += R.Ok;
    Total.StructuredErrors += R.StructuredErrors;
    Total.CacheHits += R.CacheHits;
    Total.TransportFailures += R.TransportFailures;
    Total.LatenciesMs.insert(Total.LatenciesMs.end(), R.LatenciesMs.begin(),
                             R.LatenciesMs.end());
    Total.ServerWallMs.insert(Total.ServerWallMs.end(), R.ServerWallMs.begin(),
                              R.ServerWallMs.end());
  }
  std::sort(Total.LatenciesMs.begin(), Total.LatenciesMs.end());
  std::sort(Total.ServerWallMs.begin(), Total.ServerWallMs.end());
  const uint64_t Answered = Total.Ok + Total.StructuredErrors;
  const double Throughput =
      WallMs > 0.0 ? 1000.0 * static_cast<double>(Answered) / WallMs : 0.0;

  // Scrape the server's own accounting (stats op: cache counters plus the
  // bucket-estimated latency quantiles) and its full metric snapshot
  // (metrics op) over one fresh connection.
  std::string ServerStats;
  std::string ServerMetrics;
  {
    ErrorOr<FdHandle> Conn = connectUnix(SocketPath);
    std::string Payload;
    CompileRequest Stats;
    Stats.Id = "stats";
    Stats.Op = RequestOp::Stats;
    if (Conn && writeFrame(Conn->get(), Stats.toJson()).ok() &&
        readFrame(Conn->get(), Payload, DefaultMaxFrameBytes, nullptr) ==
            FrameStatus::Frame)
      ServerStats = Payload;
    CompileRequest Metrics;
    Metrics.Id = "metrics";
    Metrics.Op = RequestOp::Metrics;
    if (Conn && writeFrame(Conn->get(), Metrics.toJson()).ok() &&
        readFrame(Conn->get(), Payload, DefaultMaxFrameBytes, nullptr) ==
            FrameStatus::Frame)
      ServerMetrics = Payload;
  }

  JsonWriter W;
  W.beginObject();
  W.key("requests").value(Requests);
  W.key("concurrency").value(Concurrency);
  W.key("kernels").value(Kernels);
  W.key("chaos").value(Chaos);
  W.key("answered").value(Answered);
  W.key("ok").value(Total.Ok);
  W.key("structured_errors").value(Total.StructuredErrors);
  W.key("transport_failures").value(Total.TransportFailures);
  W.key("cache_hits").value(Total.CacheHits);
  W.key("wall_ms").valueFixed(WallMs, 3);
  W.key("throughput_rps").valueFixed(Throughput, 2);
  W.key("latency_ms").beginObject();
  W.key("p50").valueFixed(percentile(Total.LatenciesMs, 0.50), 3);
  W.key("p90").valueFixed(percentile(Total.LatenciesMs, 0.90), 3);
  W.key("p99").valueFixed(percentile(Total.LatenciesMs, 0.99), 3);
  W.endObject();
  // Exact order statistics of the server's own per-response wall_ms: the
  // reference the bucket-estimated "server" quantiles are checked against.
  W.key("server_wall_ms").beginObject();
  W.key("p50").valueFixed(percentile(Total.ServerWallMs, 0.50), 3);
  W.key("p90").valueFixed(percentile(Total.ServerWallMs, 0.90), 3);
  W.key("p99").valueFixed(percentile(Total.ServerWallMs, 0.99), 3);
  W.endObject();
  if (!ServerStats.empty())
    W.key("server").rawValue(ServerStats);
  if (!ServerMetrics.empty())
    W.key("server_metrics").rawValue(ServerMetrics);
  W.endObject();

  std::printf("%s\n", W.str().c_str());
  if (!JsonOut.empty()) {
    std::ofstream Out(JsonOut);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", JsonOut.c_str());
      return 1;
    }
    Out << W.str() << "\n";
  }

  return Total.TransportFailures == 0 && Answered == Requests ? 0 : 1;
}
