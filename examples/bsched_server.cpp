//===- examples/bsched_server.cpp - The compile service daemon ------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// Scheduler-as-a-service (DESIGN.md §3j): serves compile requests over an
// AF_UNIX socket (length-prefixed JSON frames) or newline-delimited JSON
// on stdin/stdout, answering repeated kernels from the daemon-wide
// sharded compile cache.
//
// Run:
//   bsched_server --listen /tmp/bsched.sock [--workers N] [--cache-mb N]
//                 [--cache-shards N] [--max-frame-bytes N]
//                 [--max-deadline-ms N] [--max-instrs N] [--slow-ms N]
//                 [--log-file FILE] [--log-level LEVEL]
//   bsched_server --stdio        (one request per line, for shell tests)
//
// SIGINT/SIGTERM drain in-flight requests, answer them, then exit 0. A
// bad command line or a malformed BSCHED_FAILPOINTS exits 1 before
// serving.
// --log-file captures NDJSON telemetry (per-request events at debug,
// slow-request span trees at warn, flight-recorder dumps on failures and
// shutdown); --slow-ms arms the outlier threshold.
//
//===----------------------------------------------------------------------===//

#include "obs/Log.h"
#include "server/Server.h"
#include "support/CliOptions.h"
#include "support/FailPoint.h"
#include "support/ThreadPool.h"

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>

using namespace bsched;

namespace {

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s (--listen PATH | --stdio) [--workers N] "
               "[--cache-mb N] [--cache-shards N] [--max-frame-bytes N] "
               "[--max-deadline-ms N] [--max-instrs N] [--slow-ms N] "
               "[--log-file FILE] [--log-level LEVEL]\n",
               Argv0);
}

} // namespace

int main(int argc, char **argv) {
  ServerConfig Config;
  bool Stdio = false;
  CliOptionParser Common(CliOptionParser::WantLog);

  for (int I = 1; I < argc; ++I) {
    switch (Common.tryParse(argc, argv, I)) {
    case CliOptionParser::Match::Consumed:
      continue;
    case CliOptionParser::Match::Error:
      std::fprintf(stderr, "%s\n", Common.error().c_str());
      usage(argv[0]);
      return 1;
    case CliOptionParser::Match::NotMine:
      break;
    }
    std::string_view Arg = argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    constexpr uint64_t MaxUnsigned = std::numeric_limits<unsigned>::max();
    uint64_t N = 0;
    if (Arg == "--listen") {
      const char *V = Value();
      if (!V) {
        usage(argv[0]);
        return 1;
      }
      Config.SocketPath = V;
    } else if (Arg == "--stdio") {
      Stdio = true;
    } else if (Arg == "--workers") {
      const char *V = Value();
      if (!V || !parseCount(V, N, ThreadPool::MaxWorkers)) {
        usage(argv[0]);
        return 1;
      }
      Config.Workers = static_cast<unsigned>(N);
    } else if (Arg == "--cache-mb") {
      const char *V = Value();
      if (!V || !parseCount(V, N, UINT64_MAX >> 20)) {
        usage(argv[0]);
        return 1;
      }
      Config.CacheMaxBytes = N << 20;
    } else if (Arg == "--cache-shards") {
      const char *V = Value();
      if (!V || !parseCount(V, N, MaxUnsigned) || N == 0) {
        usage(argv[0]);
        return 1;
      }
      Config.CacheShards = static_cast<unsigned>(N);
    } else if (Arg == "--max-frame-bytes") {
      const char *V = Value();
      if (!V || !parseCount(V, N, UINT32_MAX) || N == 0) {
        usage(argv[0]);
        return 1;
      }
      Config.MaxFrameBytes = static_cast<uint32_t>(N);
    } else if (Arg == "--max-deadline-ms") {
      const char *V = Value();
      if (!V || !parseNonNegative(V, Config.MaxDeadlineMs)) {
        usage(argv[0]);
        return 1;
      }
    } else if (Arg == "--slow-ms") {
      const char *V = Value();
      if (!V || !parseNonNegative(V, Config.SlowRequestMs)) {
        usage(argv[0]);
        return 1;
      }
    } else if (Arg == "--max-instrs") {
      const char *V = Value();
      if (!V || !parseCount(V, N)) {
        usage(argv[0]);
        return 1;
      }
      Config.MaxInstructionsPerBlock = N;
    } else {
      usage(argv[0]);
      return 1;
    }
  }
  if (Stdio != Config.SocketPath.empty()) {
    // Exactly one transport: --stdio or --listen.
    usage(argv[0]);
    return 1;
  }

  Logger &Log = Logger::global();
  std::string LogError;
  if (!configureGlobalLogger(Common.options().LogLevelText,
                             Common.options().LogFile, &LogError)) {
    std::fprintf(stderr, "bsched_server: %s\n", LogError.c_str());
    return 1;
  }
  if (std::string Error = FailPointRegistry::instance().envError();
      !Error.empty()) {
    std::fprintf(stderr, "bsched_server: error: %s\n", Error.c_str());
    return 1;
  }

  // A peer that vanishes mid-response must surface as a write error on
  // that one connection, not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  // In socket mode SIGINT/SIGTERM request a drain. They are blocked before
  // the server creates any thread, so every thread inherits the mask and a
  // stop signal stays pending until main collects it with sigwait: none
  // can be lost, or kill the daemon before it drains.
  sigset_t StopSignals;
  sigemptyset(&StopSignals);
  sigaddset(&StopSignals, SIGINT);
  sigaddset(&StopSignals, SIGTERM);
  if (!Stdio)
    pthread_sigmask(SIG_BLOCK, &StopSignals, nullptr);

  MetricRegistry Metrics;
  BschedServer Server(Config, &Metrics);

  if (Stdio) {
    unsigned Served = Server.serveLines(stdin, stdout);
    Log.console(LogLevel::Info, "server",
                "bsched_server: served " + std::to_string(Served) +
                    " request(s) on stdio",
                {{"served", Served}});
    return 0;
  }

  Status Started = Server.start();
  if (!Started.ok()) {
    for (const Diagnostic &D : Started.diagnostics())
      Log.console(LogLevel::Error, "server",
                  "bsched_server: " + D.formatted(),
                  {{"code", diagCodeString(D.Code)}});
    return 1;
  }
  std::printf("bsched_server: listening on %s (workers=%u, cache=%llu MiB, "
              "shards=%u)\n",
              Config.SocketPath.c_str(), Server.config().Workers,
              static_cast<unsigned long long>(Config.CacheMaxBytes >> 20),
              Config.CacheShards);
  std::fflush(stdout);
  Log.log(LogLevel::Info, "server", "listening",
          {{"socket", Config.SocketPath},
           {"workers", Server.config().Workers},
           {"slow_ms", Config.SlowRequestMs}});

  int Signal = 0;
  sigwait(&StopSignals, &Signal);

  Server.stop();
  CompileCacheStats Stats = Server.cache().stats();
  char Drained[160];
  std::snprintf(Drained, sizeof(Drained),
                "bsched_server: drained; %llu request(s), cache %llu/%llu "
                "hit/miss, %llu eviction(s)",
                static_cast<unsigned long long>(Server.requestsServed()),
                static_cast<unsigned long long>(Stats.Hits),
                static_cast<unsigned long long>(Stats.Misses),
                static_cast<unsigned long long>(Stats.Evictions));
  Log.console(LogLevel::Info, "server", Drained,
              {{"requests", Server.requestsServed()},
               {"cache_hits", Stats.Hits},
               {"cache_misses", Stats.Misses},
               {"evictions", Stats.Evictions}});
  return 0;
}
