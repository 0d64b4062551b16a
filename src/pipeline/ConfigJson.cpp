//===- pipeline/ConfigJson.cpp - PipelineConfig schema v1 -----------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// The JSON round-trip of PipelineConfig: the versioned description of a
// compilation shared by bsched_server requests, the CLIs' --config flag,
// and experiment harnesses. toJson() emits every knob in a stable order;
// fromJson() accepts any subset (defaults = paperDefault()) and rejects
// unknown keys and type mismatches with structured diagnostics, so a
// misspelled field can never silently fall back to a default.
//
//===----------------------------------------------------------------------===//

#include "ir/Opcode.h"
#include "pipeline/Pipeline.h"
#include "support/Json.h"
#include "support/JsonValue.h"

using namespace bsched;

std::string PipelineConfig::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("schema_version").value(SchemaVersion);
  W.key("policy").value(policyName(Policy));
  W.key("optimistic_latency").value(OptimisticLatency);
  // Only non-default (non-unit) operation latencies are emitted; the
  // paper's baseline machine is all-ones and stays implicit.
  W.key("op_latencies").beginObject();
  for (unsigned Op = 0; Op != NumOpcodes; ++Op) {
    double Latency = Ops.opLatency(static_cast<Opcode>(Op));
    if (Latency != 1.0)
      W.key(opcodeName(static_cast<Opcode>(Op))).value(Latency);
  }
  W.endObject();
  W.key("target").beginObject();
  W.key("int_regs").value(Target.NumIntRegs);
  W.key("fp_regs").value(Target.NumFpRegs);
  W.key("spill_pool_size").value(Target.SpillPoolSize);
  W.key("fifo_spill_pool").value(Target.FifoSpillPool);
  W.endObject();
  W.key("dag").beginObject();
  W.key("disambiguate_same_base").value(DagOptions.DisambiguateSameBase);
  W.key("alias_analysis").value(DagOptions.AliasAnalysis);
  W.endObject();
  W.key("sched").beginObject();
  W.key("issue_width").value(SchedOptions.IssueWidth);
  W.endObject();
  W.key("closure").beginObject();
  W.key("mode").value(closureModeName(Closure.Mode));
  W.key("on_demand_threshold").value(Closure.OnDemandThreshold);
  W.endObject();
  W.key("run_regalloc").value(RunRegAlloc);
  W.key("second_scheduling_pass").value(SecondSchedulingPass);
  W.key("honor_known_latency").value(HonorKnownLatency);
  W.key("rename_after_allocation").value(RenameAfterAllocation);
  W.key("certify").value(Certify);
  W.key("budget").beginObject();
  W.key("deadline_ms").value(Budget.DeadlineMs);
  W.key("max_ticks").value(Budget.MaxTicks);
  W.key("max_instructions_per_block").value(Budget.MaxInstructionsPerBlock);
  W.key("max_dag_edges").value(Budget.MaxDagEdges);
  W.key("max_closure_bits").value(Budget.MaxClosureBits);
  W.key("max_spill_slots").value(Budget.MaxSpillSlots);
  W.key("degrade").value(Budget.Degrade);
  W.endObject();
  W.endObject();
  return W.str();
}

namespace {

/// Collects field errors for one fromJson call; "path" renders as
/// "budget.max_ticks" in messages.
class ConfigReader {
public:
  std::vector<Diagnostic> Diags;

  void error(DiagCode Code, std::string Message) {
    Diags.push_back({0, 0, std::move(Message), Severity::Error, Code});
  }

  bool readBool(const JsonValue &V, std::string_view Path, bool &Out) {
    if (!V.isBool()) {
      typeError(Path, "boolean", V);
      return false;
    }
    Out = V.asBool();
    return true;
  }

  bool readDouble(const JsonValue &V, std::string_view Path, double &Out) {
    if (!V.isNumber()) {
      typeError(Path, "number", V);
      return false;
    }
    Out = V.asNumber();
    return true;
  }

  bool readUnsigned(const JsonValue &V, std::string_view Path,
                    unsigned &Out) {
    uint64_t Wide;
    if (!V.isNumber() || !V.asUInt64(Wide) || Wide > 0xFFFFFFFFull) {
      typeError(Path, "non-negative integer", V);
      return false;
    }
    Out = static_cast<unsigned>(Wide);
    return true;
  }

  bool readUInt64(const JsonValue &V, std::string_view Path, uint64_t &Out) {
    if (!V.isNumber() || !V.asUInt64(Out)) {
      typeError(Path, "non-negative integer", V);
      return false;
    }
    return true;
  }

  void unknownKey(std::string_view Path, std::string_view Key) {
    error(DiagCode::ProtocolUnknownKey,
          "unknown config key '" + join(Path, Key) + "'");
  }

  /// Dispatches every member of object \p V (reported at \p Path) through
  /// \p Field: a callable returning false for an unrecognized key.
  template <typename FieldFn>
  void object(const JsonValue &V, std::string_view Path, FieldFn Field) {
    if (!V.isObject()) {
      typeError(Path, "object", V);
      return;
    }
    for (const JsonValue::Member &M : V.members())
      if (!Field(M.first, M.second))
        unknownKey(Path, M.first);
  }

  static std::string join(std::string_view Path, std::string_view Key) {
    return Path.empty() ? std::string(Key)
                        : std::string(Path) + "." + std::string(Key);
  }

private:
  void typeError(std::string_view Path, std::string_view Expected,
                 const JsonValue &V) {
    error(DiagCode::ProtocolBadValue, "config key '" + std::string(Path) +
                                          "' expects a " +
                                          std::string(Expected) + ", got " +
                                          std::string(V.kindName()));
  }
};

} // namespace

ErrorOr<PipelineConfig> PipelineConfig::fromJson(std::string_view Json) {
  ErrorOr<JsonValue> Doc = parseJson(Json);
  if (!Doc)
    return Doc.takeErrors();
  return fromJsonValue(*Doc);
}

ErrorOr<PipelineConfig> PipelineConfig::fromJsonValue(const JsonValue &Doc) {
  ConfigReader R;
  PipelineConfig Config = PipelineConfig::paperDefault();

  R.object(Doc, "", [&](std::string_view Key, const JsonValue &V) {
    if (Key == "schema_version") {
      uint64_t Version = 0;
      if (R.readUInt64(V, Key, Version) && Version != SchemaVersion)
        R.error(DiagCode::ProtocolSchemaVersion,
                "unsupported schema_version " + std::to_string(Version) +
                    " (this build speaks v" + std::to_string(SchemaVersion) +
                    ")");
      return true;
    }
    if (Key == "policy") {
      if (!V.isString()) {
        R.error(DiagCode::ProtocolBadValue,
                "config key 'policy' expects a string, got " +
                    std::string(V.kindName()));
        return true;
      }
      ErrorOr<SchedulerPolicy> Parsed = parsePolicyName(V.asString());
      if (!Parsed) {
        for (const Diagnostic &D : Parsed.errors())
          R.Diags.push_back(D);
        return true;
      }
      Config.Policy = *Parsed;
      return true;
    }
    if (Key == "optimistic_latency")
      return R.readDouble(V, Key, Config.OptimisticLatency), true;
    if (Key == "op_latencies") {
      R.object(V, Key, [&](std::string_view Op, const JsonValue &L) {
        std::optional<Opcode> Parsed = parseOpcode(Op);
        if (!Parsed) {
          R.error(DiagCode::ProtocolBadValue,
                  "op_latencies: unknown opcode '" + std::string(Op) + "'");
          return true;
        }
        double Latency = 1.0;
        if (R.readDouble(L, ConfigReader::join(Key, Op), Latency)) {
          if (Latency < 1.0)
            R.error(DiagCode::ProtocolBadValue,
                    "op_latencies." + std::string(Op) +
                        ": latency must be >= 1 cycle");
          else
            Config.Ops.setOpLatency(*Parsed, Latency);
        }
        return true;
      });
      return true;
    }
    if (Key == "target") {
      R.object(V, Key, [&](std::string_view K, const JsonValue &F) {
        std::string Path = ConfigReader::join(Key, K);
        if (K == "int_regs")
          return R.readUnsigned(F, Path, Config.Target.NumIntRegs), true;
        if (K == "fp_regs")
          return R.readUnsigned(F, Path, Config.Target.NumFpRegs), true;
        if (K == "spill_pool_size")
          return R.readUnsigned(F, Path, Config.Target.SpillPoolSize), true;
        if (K == "fifo_spill_pool")
          return R.readBool(F, Path, Config.Target.FifoSpillPool), true;
        return false;
      });
      return true;
    }
    if (Key == "dag") {
      R.object(V, Key, [&](std::string_view K, const JsonValue &F) {
        if (K == "disambiguate_same_base")
          return R.readBool(F, ConfigReader::join(Key, K),
                            Config.DagOptions.DisambiguateSameBase),
                 true;
        if (K == "alias_analysis")
          return R.readBool(F, ConfigReader::join(Key, K),
                            Config.DagOptions.AliasAnalysis),
                 true;
        return false;
      });
      return true;
    }
    if (Key == "sched") {
      R.object(V, Key, [&](std::string_view K, const JsonValue &F) {
        if (K == "issue_width")
          return R.readUnsigned(F, ConfigReader::join(Key, K),
                                Config.SchedOptions.IssueWidth),
                 true;
        return false;
      });
      return true;
    }
    if (Key == "closure") {
      // Accepted and round-tripped, with no effect (dag/Reachability.h).
      R.object(V, Key, [&](std::string_view K, const JsonValue &F) {
        std::string Path = ConfigReader::join(Key, K);
        if (K == "mode") {
          if (!F.isString() ||
              !parseClosureModeName(F.asString(), Config.Closure.Mode))
            R.error(DiagCode::ProtocolBadValue,
                    "config key '" + Path +
                        "' expects one of \"auto\", \"materialized\", "
                        "\"blocked\", \"on-demand\"");
          return true;
        }
        if (K == "on_demand_threshold")
          return R.readUnsigned(F, Path, Config.Closure.OnDemandThreshold),
                 true;
        return false;
      });
      return true;
    }
    if (Key == "run_regalloc")
      return R.readBool(V, Key, Config.RunRegAlloc), true;
    if (Key == "second_scheduling_pass")
      return R.readBool(V, Key, Config.SecondSchedulingPass), true;
    if (Key == "honor_known_latency")
      return R.readBool(V, Key, Config.HonorKnownLatency), true;
    if (Key == "rename_after_allocation")
      return R.readBool(V, Key, Config.RenameAfterAllocation), true;
    if (Key == "certify")
      return R.readBool(V, Key, Config.Certify), true;
    if (Key == "budget") {
      R.object(V, Key, [&](std::string_view K, const JsonValue &F) {
        std::string Path = ConfigReader::join(Key, K);
        if (K == "deadline_ms")
          return R.readDouble(F, Path, Config.Budget.DeadlineMs), true;
        if (K == "max_ticks")
          return R.readUInt64(F, Path, Config.Budget.MaxTicks), true;
        if (K == "max_instructions_per_block")
          return R.readUInt64(F, Path,
                              Config.Budget.MaxInstructionsPerBlock),
                 true;
        if (K == "max_dag_edges")
          return R.readUInt64(F, Path, Config.Budget.MaxDagEdges), true;
        if (K == "max_closure_bits")
          return R.readUInt64(F, Path, Config.Budget.MaxClosureBits), true;
        if (K == "max_spill_slots")
          return R.readUInt64(F, Path, Config.Budget.MaxSpillSlots), true;
        if (K == "degrade")
          return R.readBool(F, Path, Config.Budget.Degrade), true;
        return false;
      });
      return true;
    }
    return false;
  });

  if (!R.Diags.empty())
    return std::move(R.Diags);
  return Config;
}
