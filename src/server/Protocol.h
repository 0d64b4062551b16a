//===- server/Protocol.h - bsched_server wire protocol ---------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned request/response schema of the compile service
/// (DESIGN.md §3j). One request = one JSON object; over a socket each
/// object travels in a length-prefixed frame (support/Wire.h), over
/// stdio one per line (NDJSON). The schema version is shared with
/// PipelineConfig — a request's embedded "config" object is exactly the
/// PipelineConfig::toJson() document.
///
/// Parsing follows the config rules: every field is optional with a
/// stated default, unknown keys are BS902 errors (a misspelled field
/// must not silently become a default), type mismatches are BS903, and
/// a version this build does not speak is BS901. A malformed request
/// never crashes the server — it becomes an ok:false response carrying
/// the diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SERVER_PROTOCOL_H
#define BSCHED_SERVER_PROTOCOL_H

#include "pipeline/Pipeline.h"
#include "support/Diagnostic.h"
#include "support/ErrorOr.h"

#include <string>
#include <string_view>
#include <vector>

namespace bsched {

/// What a request asks the server to do.
enum class RequestOp : uint8_t {
  Compile, ///< Compile "kernel" under "config" (the default).
  Stats,   ///< Report cache statistics and the server metric snapshot.
  Metrics, ///< Export the server metric snapshot (JSON or Prometheus).
  Ping,    ///< Liveness probe; echoes the id.
};

/// "compile", "stats", "metrics", "ping".
std::string_view requestOpName(RequestOp Op);

/// One client request. Over the wire:
///   {"schema_version":1, "id":"r1", "op":"compile",
///    "kernel":"func @k { ... }", "config":{...},
///    "want_schedule":true, "want_metrics":false}
struct CompileRequest {
  /// Mirrors PipelineConfig::SchemaVersion: the request envelope and the
  /// embedded config are versioned together.
  static constexpr unsigned SchemaVersion = PipelineConfig::SchemaVersion;

  std::string Id;                    ///< Echoed on the response.
  RequestOp Op = RequestOp::Compile;
  std::string Kernel;                ///< Textual .bsir IR (compile only).
  PipelineConfig Config = PipelineConfig::paperDefault();
  bool WantSchedule = true;          ///< Include the compiled IR text.
  /// Include the MetricSnapshot of the compile this request ran; empty
  /// on a cache hit, which runs none (cache_hit says so).
  bool WantMetrics = false;
  std::string MetricsFormat = "json"; ///< metrics op: "json"|"prometheus".

  std::string toJson() const;
  static ErrorOr<CompileRequest> fromJson(std::string_view Json);
};

/// One server response. Diagnostics travel structured (stable BS code,
/// severity, location, message) so clients can branch on codes instead
/// of scraping message text.
struct CompileResponse {
  std::string Id;                    ///< Copied from the request.
  bool Ok = false;                   ///< Compile (or op) succeeded.
  bool CacheHit = false;             ///< Served from the shared cache.
  std::string Degradation = "none";  ///< degradationName of the result.
  unsigned StaticInstructions = 0;
  unsigned StaticSpills = 0;
  double DynamicInstructions = 0.0;
  double DynamicSpills = 0.0;
  double WallMs = 0.0;               ///< Server-side handling time.
  std::string Schedule;              ///< Compiled IR (want_schedule only).
  std::vector<Diagnostic> Diags;     ///< Failure (or warning) details.
  std::string StatsJson;             ///< Raw JSON: stats op / want_metrics
                                     ///< / metrics op in json format.
  std::string MetricsText;           ///< metrics op, prometheus format.

  std::string toJson() const;
  static ErrorOr<CompileResponse> fromJson(std::string_view Json);
};

} // namespace bsched

#endif // BSCHED_SERVER_PROTOCOL_H
