//===- server/Server.cpp - The bsched compile service ---------------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "ir/IrPrinter.h"
#include "obs/FlightRecorder.h"
#include "obs/Log.h"
#include "obs/Trace.h"
#include "parser/Parser.h"
#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>

#include <sys/socket.h>

using namespace bsched;

namespace {

/// Log-spaced (powers of two) latency bucket edges, microseconds: 1us up
/// to ~16.8s; slower requests land in the overflow bucket.
std::vector<uint64_t> latencyEdgesUs() {
  std::vector<uint64_t> Edges;
  for (uint64_t Edge = 1; Edge <= (1ull << 24); Edge <<= 1)
    Edges.push_back(Edge);
  return Edges;
}

/// The metric name of one op's latency histogram.
std::string latencyMetricName(std::string_view Op) {
  return "bsched.server.latency_us." + std::string(Op);
}

/// A response diagnostic that warrants a flight-recorder dump: governor
/// hard-fails, armed fail points, and pool-fault backstops.
const Diagnostic *findDumpworthyDiag(const CompileResponse &Response) {
  for (const Diagnostic &D : Response.Diags)
    if (D.Code == DiagCode::GovernorBlockTooLarge ||
        D.Code == DiagCode::InjectedFault ||
        D.Code == DiagCode::EngineCellFault)
      return &D;
  return nullptr;
}

} // namespace

BschedServer::BschedServer(ServerConfig Config, MetricRegistry *Metrics)
    : Config(Config),
      OwnedMetrics(Metrics ? nullptr : new MetricRegistry()),
      Metrics(Metrics ? Metrics : OwnedMetrics.get()),
      Cache(std::make_shared<CompileCache>(
          CompileCacheConfig{Config.CacheShards, Config.CacheMaxBytes,
                             /*MaxEntries=*/0},
          this->Metrics)),
      Pool(Config.Workers) {
  const std::vector<uint64_t> Edges = latencyEdgesUs();
  for (unsigned Op = 0; Op != NumOps; ++Op)
    LatencyByOp[Op] = this->Metrics->histogram(
        latencyMetricName(requestOpName(static_cast<RequestOp>(Op))), Edges);
  LatencyInvalid =
      this->Metrics->histogram(latencyMetricName("invalid"), Edges);
}

BschedServer::~BschedServer() { stop(); }

Status BschedServer::start() {
  Status Listening = Listener.listen(Config.SocketPath);
  if (!Listening.ok())
    return Listening;
  Acceptor = std::thread([this] { acceptLoop(); });
  return Status::success();
}

void BschedServer::stop() {
  if (Stopping.exchange(true))
    return;
  Listener.shutdown();
  if (Acceptor.joinable())
    Acceptor.join();
  // Half-close every live connection for reading: an idle reader sees EOF
  // now; one mid-compile finishes, writes its response, then sees it.
  // Frames a peer queued before the half-close are still read first and
  // refused with BS908, so no connection closes holding unread data. The
  // fd stays open (and its number reserved) until its own thread removes
  // it from LiveConns and closes — so this shutdown never hits a reused fd.
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (int Fd : LiveConns)
      ::shutdown(Fd, SHUT_RD);
  }
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Threads.swap(ConnThreads);
  }
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  Listener.close();
  // Graceful shutdown is a postmortem boundary too: persist what the
  // service was doing in its last moments.
  Logger &Log = Logger::global();
  if (Log.enabled(LogLevel::Info))
    Log.log(LogLevel::Info, "server", "flight-recorder dump",
            {{"trigger", "shutdown"},
             LogField::raw("dump",
                           FlightRecorder::global().dumpJson("shutdown"))});
}

void BschedServer::acceptLoop() {
  // Runs until accept() fails once stop() has begun. After stop() shuts
  // the listener down, accept() (on Linux) still hands out the connections
  // queued in its backlog before it fails, and each is served like any
  // other: its
  // queued requests get BS908, then it sees EOF (stop() joins this thread
  // before half-closing). Dropping one instead, or leaving it queued when
  // the listener closes, would reset its peer.
  for (;;) {
    FdHandle Conn = Listener.accept();
    if (!Conn.valid()) {
      if (Stopping.load())
        break;
      continue;
    }
    if (Metrics)
      Metrics->counter("bsched.server.connections").add();
    std::lock_guard<std::mutex> Lock(ConnMutex);
    LiveConns.push_back(Conn.get());
    ConnThreads.emplace_back(
        [this, C = std::move(Conn)]() mutable { serveConnection(std::move(C)); });
  }
}

void BschedServer::serveConnection(FdHandle Conn) {
  std::string Payload;
  for (;;) {
    Diagnostic FrameError;
    FrameStatus S =
        readFrame(Conn.get(), Payload, Config.MaxFrameBytes, &FrameError);
    if (S == FrameStatus::Frame) {
      std::string Response = handleRequest(Payload);
      if (!writeFrame(Conn.get(), Response).ok())
        break; // Peer gone mid-write; nothing left to tell it.
      continue;
    }
    if (S == FrameStatus::Error) {
      if (Metrics)
        Metrics->counter("bsched.server.bad_frames").add();
      // An oversized frame is detected before its payload is read, so the
      // peer is still listening: answer with the structured diagnostic,
      // then close — the stream is out of sync by construction. A
      // truncated frame means the peer already vanished; just close.
      if (FrameError.Code == DiagCode::WireFrameTooLarge) {
        CompileResponse Error;
        Error.Ok = false;
        Error.Diags.push_back(std::move(FrameError));
        (void)writeFrame(Conn.get(), Error.toJson());
      }
    }
    break; // Eof or Error.
  }
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    LiveConns.erase(
        std::remove(LiveConns.begin(), LiveConns.end(), Conn.get()),
        LiveConns.end());
  }
  // FdHandle destructor closes after deregistration (see stop()).
}

std::string BschedServer::statsJson() const {
  CompileCacheStats Stats = Cache->stats();
  JsonWriter W;
  W.beginObject();
  W.key("requests_served").value(RequestsServed.load());
  W.key("workers").value(Pool.workerCount());
  W.key("cache").beginObject();
  W.key("hits").value(Stats.Hits);
  W.key("misses").value(Stats.Misses);
  W.key("insertions").value(Stats.Insertions);
  W.key("evictions").value(Stats.Evictions);
  W.key("entries").value(Stats.Entries);
  W.key("bytes").value(Stats.Bytes);
  W.key("hit_rate").valueFixed(Stats.hitRate(), 4);
  W.endObject();
  // Server-side latency, estimated from the per-op log-spaced histograms
  // (bucket interpolation, so each quantile is within one bucket of the
  // true order statistic). Microseconds, like the metric itself.
  const std::string Prefix = latencyMetricName("");
  MetricSnapshot Snapshot = Metrics->snapshot();
  W.key("latency_us").beginObject();
  for (const auto &[Name, Data] : Snapshot.Histograms) {
    if (Name.rfind(Prefix, 0) != 0)
      continue;
    W.key(Name.substr(Prefix.size())).beginObject();
    W.key("count").value(Data.Count);
    W.key("p50").valueFixed(Data.estimateQuantile(0.50), 1);
    W.key("p90").valueFixed(Data.estimateQuantile(0.90), 1);
    W.key("p99").valueFixed(Data.estimateQuantile(0.99), 1);
    W.key("min").value(Data.Min);
    W.key("max").value(Data.Max);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  return W.str();
}

std::string BschedServer::makeRequestId() {
  return "srv-" + std::to_string(NextRequestSeq.fetch_add(1) + 1);
}

CompileResponse BschedServer::compileOne(const CompileRequest &Request,
                                         TraceRecorder *Trace) {
  CompileResponse Response;
  Response.Id = Request.Id;

  PipelineConfig Config = Request.Config;
  // Correlate everything this request records: its id reaches the
  // pipeline's top-level span args, and the per-request recorder (when
  // the slow-request threshold armed one) collects the phase spans. Obs
  // is key-neutral, so cache hits and misses are unaffected.
  Config.Obs.Trace = Trace;
  Config.Obs.RequestId = Request.Id;
  // Operator ceilings compose with the request's own budget: the daemon
  // clamps deadlines into (0, MaxDeadlineMs] and admission sizes down to
  // its own maximum, whatever the client asked for.
  if (this->Config.MaxDeadlineMs > 0.0 &&
      (Config.Budget.DeadlineMs <= 0.0 ||
       Config.Budget.DeadlineMs > this->Config.MaxDeadlineMs))
    Config.Budget.DeadlineMs = this->Config.MaxDeadlineMs;
  if (this->Config.MaxInstructionsPerBlock != 0 &&
      (Config.Budget.MaxInstructionsPerBlock == 0 ||
       Config.Budget.MaxInstructionsPerBlock >
           this->Config.MaxInstructionsPerBlock))
    Config.Budget.MaxInstructionsPerBlock =
        this->Config.MaxInstructionsPerBlock;

  Status ConfigStatus = Config.validate();
  if (!ConfigStatus.ok()) {
    Response.Diags = ConfigStatus.diagnostics();
    return Response;
  }

  // Admission: the kernel parses under the request's governor, so a
  // hostile or oversized kernel is rejected before any compilation work.
  ResourceGovernor Governor(Config.Budget);
  ParseResult Parsed =
      parseIr(Request.Kernel, Governor.active() ? &Governor : nullptr);
  if (!Parsed.ok()) {
    Response.Diags = std::move(Parsed.Diags);
    return Response;
  }
  if (Parsed.Functions.size() != 1) {
    Response.Diags.push_back(
        {0, 0,
         "expected exactly one function in 'kernel', got " +
             std::to_string(Parsed.Functions.size()),
         Severity::Error, DiagCode::ParseNotSingleFunction});
    return Response;
  }

  // Only a request that asks for its metrics gets a registry: the compile
  // records into it on a miss, and a hit returns it empty.
  std::optional<MetricRegistry> RequestMetrics;
  if (Request.WantMetrics)
    RequestMetrics.emplace(2);
  bool Hit = false;
  ErrorOr<CompiledFunction> Compiled =
      Cache->compile(Parsed.Functions.front(), Config, &Hit,
                     RequestMetrics ? &*RequestMetrics : nullptr);
  Response.CacheHit = Hit;
  if (!Compiled) {
    Response.Diags = Compiled.takeErrors();
    return Response;
  }

  Response.Ok = true;
  Response.Degradation = std::string(degradationName(Compiled->Degradation));
  Response.StaticInstructions = Compiled->StaticInstructions;
  Response.StaticSpills = Compiled->StaticSpills;
  Response.DynamicInstructions = Compiled->DynamicInstructions;
  Response.DynamicSpills = Compiled->DynamicSpills;
  if (Request.WantSchedule)
    Response.Schedule = printFunction(Compiled->Compiled);
  if (RequestMetrics)
    Response.StatsJson = RequestMetrics->snapshot().toJson();
  return Response;
}

std::string BschedServer::handleRequest(std::string_view Payload) {
  const auto Start = std::chrono::steady_clock::now();
  RequestsServed.fetch_add(1);
  if (Metrics)
    Metrics->counter("bsched.server.requests").add();

  CompileResponse Response;
  // Outlier requests get their own span recorder so the slow-request log
  // line carries the whole phase tree for exactly this request.
  std::optional<TraceRecorder> RequestTrace;
  if (Config.SlowRequestMs > 0.0)
    RequestTrace.emplace();

  ErrorOr<CompileRequest> Request = CompileRequest::fromJson(Payload);
  if (Request && Request->Id.empty())
    Request->Id = makeRequestId(); // Echoed below: every response carries
                                   // a correlation id, client-supplied or
                                   // server-generated.
  if (!Request) {
    // Even an unparseable request gets a correlation id: the error
    // response, the log line, and any flight dump it triggers must still
    // share a key the operator can grep for.
    Response.Id = makeRequestId();
    Response.Diags = Request.takeErrors();
  } else if (Stopping.load()) {
    Response.Id = Request->Id;
    Response.Diags.push_back({0, 0, "server is shutting down",
                              Severity::Error, DiagCode::ServerShutdown});
  } else
    switch (Request->Op) {
    case RequestOp::Ping:
      Response.Id = Request->Id;
      Response.Ok = true;
      break;
    case RequestOp::Stats:
      Response.Id = Request->Id;
      Response.Ok = true;
      Response.StatsJson = statsJson();
      break;
    case RequestOp::Metrics: {
      Response.Id = Request->Id;
      Response.Ok = true;
      MetricSnapshot Snapshot = Metrics->snapshot();
      if (Request->MetricsFormat == "prometheus")
        Response.MetricsText = Snapshot.toPrometheus();
      else
        Response.StatsJson = Snapshot.toJson();
      break;
    }
    case RequestOp::Compile: {
      // Compiles funnel through the shared pool: N connections against W
      // workers queue instead of oversubscribing the host. The task body
      // never throws (compileOne reports failures in the response), but
      // the pool's fault capture would swallow an escape and strand this
      // future — so convert any escape into a response here.
      std::promise<CompileResponse> Promise;
      std::future<CompileResponse> Done = Promise.get_future();
      const CompileRequest &R = *Request;
      TraceRecorder *Trace = RequestTrace ? &*RequestTrace : nullptr;
      Pool.run([this, &R, Trace, &Promise] {
        try {
          Promise.set_value(compileOne(R, Trace));
        } catch (const std::exception &E) {
          CompileResponse Fault;
          Fault.Id = R.Id;
          Fault.Diags.push_back(
              {0, 0, std::string("compile task fault: ") + E.what(),
               Severity::Error, DiagCode::EngineCellFault});
          Promise.set_value(std::move(Fault));
        } catch (...) {
          CompileResponse Fault;
          Fault.Id = R.Id;
          Fault.Diags.push_back({0, 0, "compile task fault", Severity::Error,
                                 DiagCode::EngineCellFault});
          Promise.set_value(std::move(Fault));
        }
      });
      Response = Done.get();
      break;
    }
    }

  const auto End = std::chrono::steady_clock::now();
  Response.WallMs =
      std::chrono::duration<double, std::milli>(End - Start).count();
  if (Metrics) {
    Metrics->counter("bsched.server.responses").add();
    if (!Response.Ok)
      Metrics->counter("bsched.server.errors").add();
  }
  const uint64_t WallUs = static_cast<uint64_t>(Response.WallMs * 1000.0);
  if (Request)
    LatencyByOp[static_cast<unsigned>(Request->Op) % NumOps].record(WallUs);
  else
    LatencyInvalid.record(WallUs);

  // Telemetry tail: one Debug event per request (always captured by the
  // flight-recorder ring, sink-filtered by --log-level), an Error event
  // plus ring dump when the request tripped a governor hard-fail (BS802),
  // an armed fail point (BS810), or the pool-fault backstop (BS811), and
  // a Warn event with the full span tree for slow outliers.
  Logger &Log = Logger::global();
  const std::string_view OpName =
      Request ? requestOpName(Request->Op) : std::string_view("invalid");
  Log.log(LogLevel::Debug, "server", "request",
          {{"request_id", Response.Id},
           {"op", OpName},
           {"ok", Response.Ok},
           {"cache_hit", Response.CacheHit},
           {"wall_ms", Response.WallMs}});
  if (const Diagnostic *Dump = findDumpworthyDiag(Response)) {
    const std::string Code = diagCodeString(Dump->Code);
    Log.log(LogLevel::Error, "server", "request failed",
            {{"request_id", Response.Id},
             {"code", Code},
             {"message", Dump->Message}});
    if (Log.enabled(LogLevel::Error))
      Log.log(LogLevel::Error, "server", "flight-recorder dump",
              {{"request_id", Response.Id},
               {"trigger", Code},
               LogField::raw("dump",
                             FlightRecorder::global().dumpJson(Code))});
  }
  if (RequestTrace && Response.WallMs > Config.SlowRequestMs &&
      Log.enabled(LogLevel::Warn))
    Log.log(LogLevel::Warn, "server", "slow request",
            {{"request_id", Response.Id},
             {"op", OpName},
             {"wall_ms", Response.WallMs},
             {"threshold_ms", Config.SlowRequestMs},
             LogField::raw("trace", RequestTrace->toJson())});

  return Response.toJson();
}

unsigned BschedServer::serveLines(std::FILE *In, std::FILE *Out) {
  unsigned Served = 0;
  std::string Line;
  for (int C; (C = std::fgetc(In)) != EOF;) {
    if (C != '\n') {
      Line.push_back(static_cast<char>(C));
      continue;
    }
    if (Line.find_first_not_of(" \t\r") != std::string::npos) {
      std::string Response = handleRequest(Line);
      std::fwrite(Response.data(), 1, Response.size(), Out);
      std::fputc('\n', Out);
      std::fflush(Out);
      ++Served;
    }
    Line.clear();
  }
  if (Line.find_first_not_of(" \t\r") != std::string::npos) {
    std::string Response = handleRequest(Line);
    std::fwrite(Response.data(), 1, Response.size(), Out);
    std::fputc('\n', Out);
    std::fflush(Out);
    ++Served;
  }
  return Served;
}
