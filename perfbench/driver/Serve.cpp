//===- perfbench/driver/Serve.cpp - The serve-cold/serve-warm workloads ---==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
//
// The compile service under Clients closed-loop clients (build jobs that
// each wait for their reply) sending kernels from the bsched_loadgen
// pattern generator with want_schedule on.
//
//  - serve-cold: every request names its kernel uniquely, so every request
//    misses the daemon's compile cache and pays the full pipeline. The
//    kernels cycle through ColdTemplates seeded shapes; only the function
//    name (part of the cache key) is new, so the client spends no time
//    generating kernels inside the measured loop.
//  - serve-warm: a hot set of HotSet kernels, primed during set-up and then
//    replayed, so the daemon's cache serves hits: the front end is the whole
//    cost, the control for every compile-layer change. It drives the
//    daemon's request core (BschedServer::handleRequest, what each
//    connection thread runs) in process: over the socket a hit takes about
//    0.1 ms, most of it thread wake-ups, and on a shared VM host those
//    swing by 20% from run to run, drowning the front end being measured.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Oracle.h"
#include "Replay.h"
#include "Tracer.h"

#include "ir/IrPrinter.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "parser/Parser.h"
#include "server/Server.h"
#include "support/Rng.h"
#include "support/Socket.h"
#include "support/Wire.h"
#include "workload/KernelGen.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace bsched;
using namespace perfbench;

namespace {

constexpr const char *Placeholder = "PBNAME";
constexpr const char *SocketPath = "perfbench.sock";
constexpr unsigned ColdTemplates = 2048;
constexpr unsigned HotSet = 16;
/// Two clients, not Concurrency: with four, the daemon's four connection
/// and four worker threads share the VM's four vCPUs with the clients, and
/// throughput swung 15% run to run instead of 6%.
constexpr unsigned Clients = 2;

/// A random straight-line kernel from the workload patterns, the shape
/// bsched_loadgen sends (examples/bsched_loadgen.cpp, makeKernel).
Function makeKernel(Rng &R) {
  Function F(Placeholder);
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

struct Template {
  Function Input;     ///< The kernel as the daemon parses it.
  std::string Prefix; ///< Request JSON up to the function's name...
  std::string Suffix; ///< ...and after it.
};

/// The requests of one run: templates, and the template each request
/// number uses.
struct Corpus {
  bool Warm = false;
  std::vector<Template> Templates;
  std::vector<uint32_t> Order;

  /// Request number \p I, of template \p K. Cold requests are named by
  /// number, so no two share a cache key; warm ones by template.
  std::string request(uint64_t I, uint32_t K) const {
    return Templates[K].Prefix +
           (Warm ? "h" + std::to_string(K) : "c" + std::to_string(I)) +
           Templates[K].Suffix;
  }

  std::string payload(uint64_t I, uint32_t &K) const {
    K = Order[I % Order.size()];
    return request(I, K);
  }
};

Corpus makeCorpus(uint64_t Seed, bool Warm) {
  Corpus C;
  C.Warm = Warm;
  Rng Root(mixSeed(Seed, Warm ? 5 : 4));
  const unsigned Pool = Warm ? HotSet * 32 : ColdTemplates;
  std::vector<Function> Kernels;
  Kernels.reserve(Pool);
  for (unsigned K = 0; K != Pool; ++K) {
    Rng R = Root.split(K);
    Kernels.push_back(makeKernel(R));
  }
  std::vector<unsigned> Chosen(Pool);
  std::iota(Chosen.begin(), Chosen.end(), 0u);
  if (Warm) {
    // Evenly spaced size ranks of the pool, so every seed's hot set spans
    // the generator's size range alike and the front-end cost per request
    // does not swing with the seed.
    std::stable_sort(Chosen.begin(), Chosen.end(), [&](unsigned A, unsigned B) {
      return Kernels[A].totalInstructions() < Kernels[B].totalInstructions();
    });
    std::vector<unsigned> Hot;
    for (unsigned J = 0; J != HotSet; ++J)
      Hot.push_back(Chosen[32 * J + 16]);
    Chosen = std::move(Hot);
  }
  for (unsigned K : Chosen) {
    CompileRequest Request;
    Request.Kernel = printFunction(Kernels[K]);
    Request.WantSchedule = true;
    ErrorOr<Function> Parsed = parseSingleFunction(Request.Kernel);
    if (!Parsed)
      throw std::runtime_error("generated kernel does not parse: " +
                               Parsed.errors().front().formatted());
    const std::string Json = Request.toJson();
    const size_t At = Json.find(Placeholder);
    C.Templates.push_back({std::move(*Parsed), Json.substr(0, At),
                           Json.substr(At + std::strlen(Placeholder))});
  }

  Rng OrderRng(mixSeed(Seed, Warm ? 7 : 6));
  if (Warm) {
    C.Order.resize(4096);
    for (uint32_t &K : C.Order)
      K = static_cast<uint32_t>(OrderRng.nextBounded(HotSet));
  } else {
    C.Order.resize(C.Templates.size());
    std::iota(C.Order.begin(), C.Order.end(), 0u);
    for (size_t I = C.Order.size(); I > 1; --I)
      std::swap(C.Order[I - 1], C.Order[OrderRng.nextBounded(I)]);
  }
  return C;
}

/// A bsched_server child process listening on SocketPath in the working
/// directory; stopped (SIGTERM, then SIGKILL) and reaped on destruction.
class Daemon {
public:
  Daemon(const std::string &Exe) {
    ::unlink(SocketPath);
    Pid = ::fork();
    if (Pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      int Null = ::open("/dev/null", O_WRONLY);
      if (Null >= 0) {
        ::dup2(Null, STDOUT_FILENO);
        ::dup2(Null, STDERR_FILENO);
      }
      const std::string Workers = std::to_string(Concurrency);
      ::execl(Exe.c_str(), Exe.c_str(), "--listen", SocketPath, "--workers",
              Workers.c_str(), static_cast<char *>(nullptr));
      ::_exit(127);
    }
    if (Pid < 0)
      throw std::runtime_error("cannot fork the daemon");
    CompileRequest Ping;
    Ping.Op = RequestOp::Ping;
    Ping.Id = "ping";
    ErrorOr<FdHandle> Conn = connectUnix(SocketPath, /*RetryMs=*/10000);
    std::string Reply;
    if (!Conn || !writeFrame(Conn->get(), Ping.toJson()).ok() ||
        readFrame(Conn->get(), Reply, DefaultMaxFrameBytes) !=
            FrameStatus::Frame) {
      stop();
      throw std::runtime_error("daemon did not answer a ping");
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  double peakRssMib() const { return perfbench::peakRssMib(std::to_string(Pid)); }

  void stop() {
    if (Pid <= 0)
      return;
    // SIGTERM again every 100 ms: a signal landing between bsched_server's
    // StopRequested check and its pause() is otherwise lost.
    for (int Waited = 0; Waited != 1000; ++Waited) {
      if (Waited % 10 == 0)
        ::kill(Pid, SIGTERM);
      if (::waitpid(Pid, nullptr, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      ::usleep(10000);
    }
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
    Pid = -1;
  }

private:
  pid_t Pid = -1;
};

/// The first response a phase got for one template, and how many more.
struct Seen {
  std::string Schedule;
  uint64_t Hash = 0; ///< bodyHash of Schedule.
  unsigned StaticInstrs = 0;
  unsigned StaticSpills = 0;
  uint64_t Responses = 0;  ///< Ok responses for the template...
  uint64_t Mismatched = 0; ///< ...whose schedule differed from Schedule.
};

/// What one phase's clients got. Responses are compared with their
/// template's first as they arrive, so only the timings are kept per
/// response and the client's memory stays flat however long the run.
struct Phase {
  std::vector<double> LatencyMs; ///< Client round trip, per response.
  std::vector<double> WallMs;    ///< The server's own handling time.
  std::vector<double> DoneS;     ///< Completion, s since the phase began.
  std::map<uint32_t, Seen> Templates;
  uint64_t NotOk = 0;
  uint64_t Hits = 0;
  uint64_t TransportFailures = 0;
  std::vector<std::string> Errors; ///< Diagnostics of ok:false responses.
  double WallS = 0.0;
};

using Exchange = std::function<bool(const std::string &, std::string &)>;

Exchange socketExchange() {
  ErrorOr<FdHandle> Conn = connectUnix(SocketPath, /*RetryMs=*/2000);
  if (!Conn)
    return nullptr;
  auto Fd = std::make_shared<FdHandle>(std::move(*Conn));
  return [Fd](const std::string &Payload, std::string &Response) {
    return writeFrame(Fd->get(), Payload).ok() &&
           readFrame(Fd->get(), Response, DefaultMaxFrameBytes) ==
               FrameStatus::Frame;
  };
}

/// The daemon's request core in process, compiling on the calling thread.
std::unique_ptr<BschedServer> makeCore() {
  ServerConfig Config;
  Config.Workers = 1;
  return std::make_unique<BschedServer>(Config);
}

std::function<Exchange()> coreExchange(BschedServer &Core) {
  return [&Core]() -> Exchange {
    return [&Core](const std::string &Payload, std::string &Response) {
      Response = Core.handleRequest(Payload);
      return true;
    };
  };
}

/// Records one response; false when it is not a response at all.
bool record(Phase &P, uint32_t K, double LatencyMs, double DoneS,
            const std::string &Response) {
  ErrorOr<CompileResponse> R = CompileResponse::fromJson(Response);
  if (!R)
    return false;
  P.LatencyMs.push_back(LatencyMs);
  P.WallMs.push_back(R->WallMs);
  P.DoneS.push_back(DoneS);
  P.Hits += R->CacheHit;
  if (!R->Ok) {
    ++P.NotOk;
    if (P.Errors.size() < 5 && !R->Diags.empty())
      P.Errors.push_back(R->Diags.front().formatted());
    return true;
  }
  const uint64_t Hash = bodyHash(R->Schedule);
  auto [It, New] = P.Templates.try_emplace(K);
  Seen &S = It->second;
  if (New) {
    S.Schedule = std::move(R->Schedule);
    S.Hash = Hash;
    S.StaticInstrs = R->StaticInstructions;
    S.StaticSpills = R->StaticSpills;
  } else if (Hash != S.Hash) {
    ++S.Mismatched;
  }
  ++S.Responses;
  return true;
}

void merge(Phase &Into, Phase &&From) {
  auto Append = [](std::vector<double> &To, const std::vector<double> &V) {
    To.insert(To.end(), V.begin(), V.end());
  };
  Append(Into.LatencyMs, From.LatencyMs);
  Append(Into.WallMs, From.WallMs);
  Append(Into.DoneS, From.DoneS);
  for (auto &[K, S] : From.Templates) {
    auto [It, New] = Into.Templates.try_emplace(K, std::move(S));
    if (New)
      continue;
    Seen &Mine = It->second;
    Mine.Mismatched += S.Hash != Mine.Hash ? S.Responses : S.Mismatched;
    Mine.Responses += S.Responses;
  }
  Into.NotOk += From.NotOk;
  Into.Hits += From.Hits;
  Into.TransportFailures += From.TransportFailures;
  for (std::string &E : From.Errors)
    if (Into.Errors.size() < 5)
      Into.Errors.push_back(std::move(E));
}

/// Clients closed-loop clients, each with its own exchange, sending
/// requests numbered from \p Next until \p Seconds have passed.
Phase runClients(const Corpus &C, std::atomic<uint64_t> &Next, double Seconds,
                 const std::function<Exchange()> &Connect) {
  std::vector<Phase> PerThread(Clients);
  const auto Start = Clock::now();
  const auto Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Clients; ++T)
    Threads.emplace_back([&, T] {
      Phase &Mine = PerThread[T];
      Exchange Ex = Connect();
      if (!Ex) {
        ++Mine.TransportFailures;
        return;
      }
      std::string Response;
      while (Clock::now() < Deadline) {
        uint32_t K = 0;
        const std::string Payload = C.payload(Next.fetch_add(1), K);
        const auto T0 = Clock::now();
        if (!Ex(Payload, Response)) {
          ++Mine.TransportFailures;
          return;
        }
        const auto T1 = Clock::now();
        if (!record(Mine, K, msBetween(T0, T1), secondsBetween(Start, T1),
                    Response))
          ++Mine.TransportFailures;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Phase All;
  All.WallS = secondsBetween(Start, Clock::now());
  for (Phase &P : PerThread)
    merge(All, std::move(P));
  return All;
}

/// One request per template in \p Ks, in order, over \p Ex.
Phase serveEach(const Corpus &C, std::atomic<uint64_t> &Next,
                const std::vector<uint32_t> &Ks, const Exchange &Ex) {
  Phase P;
  std::string Response;
  for (uint32_t K : Ks) {
    const std::string Payload = C.request(Next.fetch_add(1), K);
    if (!Ex || !Ex(Payload, Response) || !record(P, K, 0.0, 0.0, Response))
      ++P.TransportFailures;
  }
  return P;
}

/// The checked schedule of one template.
struct Reference {
  uint64_t Hash = 0;
  unsigned StaticInstrs = 0;
  unsigned StaticSpills = 0;
  bool Bad = false; ///< Failed the interpreter oracle.
};

/// Counts \p P's requests into \p R: each must be ok and return exactly
/// its template's reference schedule. A template's first schedule becomes
/// its reference, checked with the interpreter oracle.
void checkPhase(const Corpus &C, const Phase &P,
                std::map<uint32_t, Reference> &Refs, RunResult &R) {
  R.Attempted += P.LatencyMs.size() + P.TransportFailures;
  if (P.NotOk)
    R.fail("ok:false: " +
               (P.Errors.empty() ? std::string("(no diagnostic)")
                                 : P.Errors.front()),
           P.NotOk);
  if (P.TransportFailures)
    R.fail("transport failure", P.TransportFailures);
  for (const auto &[K, S] : P.Templates) {
    auto [It, New] = Refs.try_emplace(K);
    Reference &Ref = It->second;
    if (New) {
      Ref.Hash = S.Hash;
      Ref.StaticInstrs = S.StaticInstrs;
      Ref.StaticSpills = S.StaticSpills;
      ErrorOr<Function> Compiled = parseSingleFunction(S.Schedule);
      Ref.Bad = !Compiled ||
                !checkMemoryImages(C.Templates[K].Input, *Compiled).empty();
    }
    const std::string Which = "schedule of template " + std::to_string(K);
    if (Ref.Bad)
      R.fail(Which + " fails the interpreter oracle", S.Responses);
    else if (S.Hash != Ref.Hash)
      R.fail(Which + " differs from its checked reference", S.Responses);
    else if (S.Mismatched)
      R.fail(Which + " differs from its first response", S.Mismatched);
  }
}

/// Completions per full one-second window of the phase.
std::vector<double> windowRates(const Phase &P) {
  const unsigned Windows = static_cast<unsigned>(P.WallS);
  if (Windows == 0)
    return {static_cast<double>(P.DoneS.size()) / P.WallS};
  std::vector<double> Counts(Windows, 0.0);
  for (double Done : P.DoneS)
    if (Done < Windows)
      Counts[static_cast<unsigned>(Done)] += 1.0;
  return Counts;
}

/// What the daemon keeps across requests and touches on each one: its
/// metric registry (which its compile cache publishes into too), the
/// compile latency histogram, request ids, and the compile cache, built
/// with the daemon's defaults.
struct ReplayServer {
  MetricRegistry Metrics;
  Histogram Latency;
  std::atomic<uint64_t> NextId{0};
  ReplayCache Cache;

  ReplayServer()
      : Latency(Metrics.histogram("bsched.server.latency_us.compile",
                                  latencyEdgesUs())),
        Cache(CompileCacheConfig{ServerConfig().CacheShards,
                                 ServerConfig().CacheMaxBytes,
                                 /*MaxEntries=*/0},
              &Metrics) {}

  static std::vector<uint64_t> latencyEdgesUs() {
    std::vector<uint64_t> Edges;
    for (uint64_t Edge = 1; Edge <= (1ull << 24); Edge <<= 1)
      Edges.push_back(Edge);
    return Edges;
  }
};

/// One request replayed layer by layer, as BschedServer::handleRequest
/// and compileOne handle a compile (less the hand-off to a pool worker,
/// which the in-process base also skips).
struct ReplayOutcome {
  bool Ok = false;
  uint64_t Hash = 0;
};

ReplayOutcome replayRequest(const std::string &Payload, ReplayServer &Server,
                            ReplayCounters &Counters) {
  CompileResponse Response;
  ParseResult Parsed; // Outlives the op: fillMisses compiles it again.
  {
    Scope Op = opScope();
    const auto Start = Clock::now();
    Server.Metrics.counter("bsched.server.requests").add();
    ErrorOr<CompileRequest> Request = [&] {
      Scope S(Call::ServerDecode);
      return CompileRequest::fromJson(Payload);
    }();
    if (!Request) {
      Response.Diags = Request.takeErrors();
    } else {
      if (Request->Id.empty())
        Request->Id = "srv-" + std::to_string(Server.NextId.fetch_add(1) + 1);
      Response.Id = Request->Id;
      PipelineConfig Config = Request->Config;
      Config.Obs.RequestId = Request->Id;
      Status ConfigStatus = Config.validate();
      if (ConfigStatus.ok()) {
        Scope S(Call::ParserParse);
        Parsed = parseIr(Request->Kernel);
      }
      MetricRegistry RequestMetrics(2); // compileOne builds one per request.
      if (!ConfigStatus.ok()) {
        Response.Diags = ConfigStatus.diagnostics();
      } else if (!Parsed.ok() || Parsed.Functions.size() != 1) {
        Response.Diags = std::move(Parsed.Diags);
      } else {
        ErrorOr<CompiledFunction> Compiled = replayCachedCompile(
            Server.Cache, Parsed.Functions.front(), Config, Counters,
            &Response.CacheHit, /*Sink=*/nullptr);
        if (!Compiled) {
          Response.Diags = Compiled.takeErrors();
        } else {
          Response.Ok = true;
          Response.Degradation =
              std::string(degradationName(Compiled->Degradation));
          Response.StaticInstructions = Compiled->StaticInstructions;
          Response.StaticSpills = Compiled->StaticSpills;
          Response.DynamicInstructions = Compiled->DynamicInstructions;
          Response.DynamicSpills = Compiled->DynamicSpills;
          if (Request->WantSchedule) {
            Scope S(Call::IrPrint, Compiled->StaticInstructions);
            Response.Schedule = printFunction(Compiled->Compiled);
          }
        }
      }
    }
    // handleRequest's telemetry tail.
    Response.WallMs = msBetween(Start, Clock::now());
    Server.Metrics.counter("bsched.server.responses").add();
    if (!Response.Ok)
      Server.Metrics.counter("bsched.server.errors").add();
    Server.Latency.record(static_cast<uint64_t>(Response.WallMs * 1000.0));
    Logger::global().log(LogLevel::Debug, "server", "request",
                         {{"request_id", Response.Id},
                          {"op", "compile"},
                          {"ok", Response.Ok},
                          {"cache_hit", Response.CacheHit},
                          {"wall_ms", Response.WallMs}});
    Scope S(Call::ServerEncode);
    (void)Response.toJson();
  }
  Server.Cache.fillMisses();
  return {Response.Ok, bodyHash(Response.Schedule)};
}

} // namespace

RunResult perfbench::runServe(const Options &Opts, bool Warm) {
  RunResult R;
  std::unique_ptr<Daemon> Server;
  std::unique_ptr<BschedServer> Core;
  Corpus C;
  Phase Primed;
  std::atomic<uint64_t> Next{0};
  auto Connect = [&] {
    return Warm ? coreExchange(*Core) : std::function<Exchange()>(socketExchange);
  };
  for (unsigned I = 0; I != (Opts.Trace ? 1u : SetupRepeats); ++I) {
    Server.reset();
    Core.reset();
    const auto T0 = Clock::now();
    if (Warm)
      Core = makeCore();
    else
      Server = std::make_unique<Daemon>(Opts.ServerExe);
    C = makeCorpus(Opts.Seed, Warm);
    if (Warm) {
      std::vector<uint32_t> All(C.Templates.size());
      std::iota(All.begin(), All.end(), 0u);
      Primed = serveEach(C, Next, All, Connect()());
    }
    R.SetupS.push_back(secondsBetween(T0, Clock::now()));
  }

  std::string Inputs;
  for (const Template &T : C.Templates)
    Inputs += T.Prefix + Placeholder + T.Suffix + '\n';
  for (uint32_t K : C.Order)
    Inputs += std::to_string(K) + ' ';
  R.InputDigest = fnv1a(Inputs);

  // A traced run spends half its time in this phase and half in the
  // traced replay.
  std::map<uint32_t, Reference> Refs;
  checkPhase(C, Primed, Refs, R);
  const double Seconds = Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds;
  Phase Timed = runClients(C, Next, Seconds, Connect());
  R.PeakRssMib = Warm ? peakRssMib() : Server->peakRssMib();
  std::vector<uint32_t> Missing;
  for (uint32_t K = 0; K != C.Templates.size(); ++K)
    if (!Timed.Templates.count(K) && !Refs.count(K))
      Missing.push_back(K);
  Phase Rest = serveEach(C, Next, Missing, Connect()());
  Server.reset();

  checkPhase(C, Timed, Refs, R);
  checkPhase(C, Rest, Refs, R);
  double Compiled = 0.0, Input = 0.0, Spills = 0.0;
  for (const auto &[K, Ref] : Refs) {
    Compiled += Ref.StaticInstrs;
    Spills += Ref.StaticSpills;
    Input += C.Templates[K].Input.totalInstructions();
  }
  R.CodeGrowth = Compiled / Input;
  R.Info.push_back({"spill_pct", 100.0 * Spills / Compiled, "%"});
  R.Info.push_back({"templates", static_cast<double>(C.Templates.size()),
                    "kernels"});
  R.Info.push_back({"cache_hits", static_cast<double>(Timed.Hits),
                    "requests"});
  R.RatePerS = windowRates(Timed);
  if (!Opts.Trace) {
    R.LatencyMs = std::move(Timed.LatencyMs);
    R.DoneS = std::move(Timed.DoneS);
    return R;
  }

  if (!Warm) {
    // The daemon's own handling time, and the rest of the round trip:
    // transport and queueing for a pool worker.
    R.HandleMs = Timed.WallMs;
    for (size_t I = 0; I != Timed.LatencyMs.size(); ++I)
      R.WaitMs.push_back(Timed.LatencyMs[I] - Timed.WallMs[I]);
  }
  R.Layer.push_back({"server.structured_errors",
                     static_cast<double>(Timed.NotOk), "count"});
  R.Layer.push_back({"server.transport_failures",
                     static_cast<double>(Timed.TransportFailures), "count"});

  // Traced: the same requests replayed call by call, each must return
  // exactly the schedule runPipeline produces for its kernel. Every replay
  // follows an untraced request to the daemon's request core in process,
  // one compile on the caller's thread as the replay does, which times the
  // base for the tracing overhead at the same moments of the host (those
  // responses are timed only; the phase above checked the program's). The
  // two take different kernels: a replay of the kernel just compiled would
  // find the host's caches warm for it.
  if (!Core)
    Core = makeCore();
  startTracing(1u << 18);
  ReplayCounters Counters;
  ReplayServer ReplayedServer;
  std::vector<std::vector<std::pair<uint32_t, ReplayOutcome>>> Outcomes(
      Clients);
  std::vector<std::vector<double>> BaseMs(Clients);
  const auto Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Clients; ++T)
    Threads.emplace_back([&, T] {
      std::string Response;
      while (Clock::now() < Deadline && !traceFull()) {
        uint32_t K = 0;
        const std::string Base = C.payload(Next.fetch_add(1), K);
        const auto T0 = Clock::now();
        Response = Core->handleRequest(Base);
        BaseMs[T].push_back(msBetween(T0, Clock::now()));
        const std::string Payload = C.payload(Next.fetch_add(1), K);
        Outcomes[T].push_back(
            {K, replayRequest(Payload, ReplayedServer, Counters)});
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (const std::vector<double> &Ms : BaseMs)
    R.UntracedOpMs.insert(R.UntracedOpMs.end(), Ms.begin(), Ms.end());
  std::map<uint32_t, uint64_t> Expected;
  for (const auto &Thread : Outcomes)
    for (const auto &[K, Out] : Thread) {
      ++R.Attempted;
      auto [It, New] = Expected.emplace(K, 0);
      if (New) {
        ErrorOr<CompiledFunction> Ref =
            runPipeline(C.Templates[K].Input, PipelineConfig::paperDefault());
        It->second = Ref ? bodyHash(printFunction(Ref->Compiled)) : 0;
      }
      if (!Out.Ok)
        R.fail("replayed request failed");
      else if (Out.Hash != It->second)
        R.fail("replay of template " + std::to_string(K) +
               " differs from runPipeline");
    }
  Counters.report(R);
  return R;
}
