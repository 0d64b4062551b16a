//===- server/Protocol.cpp - bsched_server wire protocol ------------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include "support/Json.h"
#include "support/JsonValue.h"

#include <cstdlib>

using namespace bsched;

std::string_view bsched::requestOpName(RequestOp Op) {
  switch (Op) {
  case RequestOp::Compile:
    return "compile";
  case RequestOp::Stats:
    return "stats";
  case RequestOp::Metrics:
    return "metrics";
  case RequestOp::Ping:
    return "ping";
  }
  return "compile";
}

std::string CompileRequest::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("schema_version").value(SchemaVersion);
  W.key("id").value(Id);
  W.key("op").value(requestOpName(Op));
  if (Op == RequestOp::Compile) {
    W.key("kernel").value(Kernel);
    W.key("config").rawValue(Config.toJson());
    W.key("want_schedule").value(WantSchedule);
    W.key("want_metrics").value(WantMetrics);
  }
  if (Op == RequestOp::Metrics && MetricsFormat != "json")
    W.key("metrics_format").value(MetricsFormat);
  W.endObject();
  return W.str();
}

ErrorOr<CompileRequest> CompileRequest::fromJson(std::string_view Json) {
  ErrorOr<JsonValue> Doc = parseJson(Json);
  if (!Doc)
    return Doc.takeErrors();
  if (!Doc->isObject())
    return Diagnostic{0, 0,
                      "request must be a JSON object, got " +
                          std::string(Doc->kindName()),
                      Severity::Error, DiagCode::ProtocolBadValue};

  CompileRequest Request;
  JsonReader R("request");
  for (const JsonValue::Member &M : Doc->members()) {
    const std::string &Key = M.first;
    const JsonValue &V = M.second;
    if (Key == "schema_version") {
      R.checkSchemaVersion(V, SchemaVersion);
    } else if (Key == "id") {
      R.read(V, Key, Request.Id);
    } else if (Key == "op") {
      std::string Name;
      if (R.read(V, Key, Name)) {
        if (Name == "compile")
          Request.Op = RequestOp::Compile;
        else if (Name == "stats")
          Request.Op = RequestOp::Stats;
        else if (Name == "metrics")
          Request.Op = RequestOp::Metrics;
        else if (Name == "ping")
          Request.Op = RequestOp::Ping;
        else
          R.error(DiagCode::ProtocolBadValue,
                  "unknown op '" + Name +
                      "' (expected compile, stats, metrics or ping)");
      }
    } else if (Key == "kernel") {
      R.read(V, Key, Request.Kernel);
    } else if (Key == "config") {
      // One schema implementation: the embedded config subtree goes
      // through PipelineConfig's own parser.
      ErrorOr<PipelineConfig> Parsed = PipelineConfig::fromJsonValue(V);
      if (Parsed)
        Request.Config = std::move(*Parsed);
      else
        for (const Diagnostic &D : Parsed.errors())
          R.Diags.push_back(D);
    } else if (Key == "want_schedule") {
      R.read(V, Key, Request.WantSchedule);
    } else if (Key == "want_metrics") {
      R.read(V, Key, Request.WantMetrics);
    } else if (Key == "metrics_format") {
      if (R.read(V, Key, Request.MetricsFormat) &&
          Request.MetricsFormat != "json" &&
          Request.MetricsFormat != "prometheus")
        R.error(DiagCode::ProtocolBadValue,
                "unknown metrics_format '" + Request.MetricsFormat +
                    "' (expected json or prometheus)");
    } else {
      R.unknownKey(Key);
    }
  }
  if (!R.Diags.empty())
    return std::move(R.Diags);
  return Request;
}

std::string CompileResponse::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("schema_version").value(CompileRequest::SchemaVersion);
  W.key("id").value(Id);
  W.key("ok").value(Ok);
  W.key("cache_hit").value(CacheHit);
  W.key("degradation").value(Degradation);
  W.key("static_instructions").value(StaticInstructions);
  W.key("static_spills").value(StaticSpills);
  W.key("dynamic_instructions").valueFixed(DynamicInstructions, 3);
  W.key("dynamic_spills").valueFixed(DynamicSpills, 3);
  W.key("wall_ms").valueFixed(WallMs, 3);
  if (!Schedule.empty())
    W.key("schedule").value(Schedule);
  W.key("diagnostics").beginArray();
  for (const Diagnostic &D : Diags) {
    W.beginObject();
    W.key("code").value(diagCodeString(D.Code));
    W.key("severity").value(severityName(D.Sev));
    W.key("line").value(D.Line);
    W.key("col").value(D.Col);
    W.key("message").value(D.Message);
    W.endObject();
  }
  W.endArray();
  if (!StatsJson.empty())
    W.key("stats").rawValue(StatsJson);
  if (!MetricsText.empty())
    W.key("metrics_text").value(MetricsText);
  W.endObject();
  return W.str();
}

ErrorOr<CompileResponse> CompileResponse::fromJson(std::string_view Json) {
  ErrorOr<JsonValue> Doc = parseJson(Json);
  if (!Doc)
    return Doc.takeErrors();
  if (!Doc->isObject())
    return Diagnostic{0, 0,
                      "response must be a JSON object, got " +
                          std::string(Doc->kindName()),
                      Severity::Error, DiagCode::ProtocolBadValue};

  CompileResponse Response;
  // Type errors say "request key", as they always have; unknown keys say
  // "response key".
  JsonReader R("request");
  for (const JsonValue::Member &M : Doc->members()) {
    const std::string &Key = M.first;
    const JsonValue &V = M.second;
    if (Key == "schema_version") {
      R.checkSchemaVersion(V, CompileRequest::SchemaVersion);
    } else if (Key == "id") {
      R.read(V, Key, Response.Id);
    } else if (Key == "ok") {
      R.read(V, Key, Response.Ok);
    } else if (Key == "cache_hit") {
      R.read(V, Key, Response.CacheHit);
    } else if (Key == "degradation") {
      R.read(V, Key, Response.Degradation);
    } else if (Key == "static_instructions") {
      R.read(V, Key, Response.StaticInstructions);
    } else if (Key == "static_spills") {
      R.read(V, Key, Response.StaticSpills);
    } else if (Key == "dynamic_instructions") {
      R.read(V, Key, Response.DynamicInstructions);
    } else if (Key == "dynamic_spills") {
      R.read(V, Key, Response.DynamicSpills);
    } else if (Key == "wall_ms") {
      R.read(V, Key, Response.WallMs);
    } else if (Key == "schedule") {
      R.read(V, Key, Response.Schedule);
    } else if (Key == "diagnostics") {
      if (!V.isArray()) {
        R.typeError(Key, "array", V);
        continue;
      }
      for (const JsonValue &E : V.elements()) {
        if (!E.isObject()) {
          R.typeError("diagnostics[]", "object", E);
          continue;
        }
        Diagnostic D;
        if (const JsonValue *Code = E.find("code"); Code && Code->isString()) {
          // "BS201" -> numeric code; unknown numbers keep their value (the
          // enum is open by design for forward compatibility).
          const std::string &Text = Code->asString();
          if (Text.size() > 2 && Text[0] == 'B' && Text[1] == 'S')
            D.Code = static_cast<DiagCode>(std::atoi(Text.c_str() + 2));
        }
        if (const JsonValue *Sev = E.find("severity"); Sev && Sev->isString()) {
          const std::string &Name = Sev->asString();
          D.Sev = Name == "error"     ? Severity::Error
                  : Name == "warning" ? Severity::Warning
                                      : Severity::Note;
        }
        if (const JsonValue *Line = E.find("line")) {
          uint64_t N = 0;
          if (Line->asUInt64(N))
            D.Line = static_cast<unsigned>(N);
        }
        if (const JsonValue *Col = E.find("col")) {
          uint64_t N = 0;
          if (Col->asUInt64(N))
            D.Col = static_cast<unsigned>(N);
        }
        if (const JsonValue *Msg = E.find("message"); Msg && Msg->isString())
          D.Message = Msg->asString();
        Response.Diags.push_back(std::move(D));
      }
    } else if (Key == "stats") {
      // Kept opaque: clients treat stats as a raw document.
    } else if (Key == "metrics_text") {
      R.read(V, Key, Response.MetricsText);
    } else {
      R.error(DiagCode::ProtocolUnknownKey,
              "unknown response key '" + Key + "'");
    }
  }
  if (!R.Diags.empty())
    return std::move(R.Diags);
  return Response;
}
