//===- pipeline/ConfigJson.cpp - PipelineConfig's one field list ----------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// Every PipelineConfig field is listed once, in forEachField, and the four
// things that must know every field are generated from that list: the v1
// writer toJson(), the strict reader fromJson(), the config half of the
// compile-cache key, and the per-field range checks of validate(). Adding
// or deleting a knob is one row.
//
// toJson() emits every knob in a stable order; fromJson() accepts any
// subset (defaults = paperDefault()) and rejects unknown keys and type
// mismatches with structured diagnostics, so a misspelled field can never
// silently fall back to a default. Out-of-range values parse and are
// rejected by validate(), so every config that validates round-trips.
//
//===----------------------------------------------------------------------===//

#include "ir/Opcode.h"
#include "pipeline/CompileCache.h"
#include "pipeline/Pipeline.h"
#include "support/Json.h"
#include "support/JsonValue.h"
#include "support/StringUtils.h"

#include <charconv>
#include <limits>
#include <type_traits>

using namespace bsched;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// The values a numeric field accepts: [Min, Max], or (Min, Max] with
/// OpenMin. NaN lies in no range. The default admits every value of an
/// integer type; every double field states a finite range.
struct Range {
  double Min = -Inf;
  double Max = Inf;
  bool OpenMin = false;

  bool contains(double V) const {
    return (OpenMin ? V > Min : V >= Min) && V <= Max;
  }
};

/// One row of the field list: the field's v1 section and name, its range,
/// and whether it is part of the compile-cache key. Its kind is the C++
/// type of its member.
struct Field {
  std::string_view Section; ///< Enclosing v1 object; empty at top level.
  std::string_view Name;
  Range Accepts = {};
  bool InKey = true;
};

/// Caps far above any real machine, which keep one request from holding
/// a worker or the heap: the list scheduler steps one slot at a time up
/// to a load's weight, and the allocator sizes its tables by register
/// count.
constexpr double MaxLatencyCycles = 1024.0;
constexpr double MaxRegistersPerClass = 1024.0;

/// The field list: calls Visit(Field, Member) for every PipelineConfig
/// field, in v1 document order (one section's rows are contiguous). There
/// are no defaults here: they are the default-constructed struct. Obs and
/// WeighterPool are runtime wiring, not configuration, and are not listed.
template <typename ConfigT, typename VisitT>
void forEachField(ConfigT &C, VisitT &&Visit) {
  Visit(Field{"", "policy"}, C.Policy);
  Visit(Field{"", "optimistic_latency",
              {0.0, MaxLatencyCycles, /*OpenMin=*/true}},
        C.OptimisticLatency);
  Visit(Field{"", "op_latencies", {1.0, MaxLatencyCycles}}, C.Ops);
  Visit(Field{"target", "int_regs", {0.0, MaxRegistersPerClass}},
        C.Target.NumIntRegs);
  Visit(Field{"target", "fp_regs", {0.0, MaxRegistersPerClass}},
        C.Target.NumFpRegs);
  Visit(Field{"target", "spill_pool_size"}, C.Target.SpillPoolSize);
  Visit(Field{"target", "fifo_spill_pool"}, C.Target.FifoSpillPool);
  Visit(Field{"dag", "disambiguate_same_base"},
        C.DagOptions.DisambiguateSameBase);
  Visit(Field{"dag", "alias_analysis"}, C.DagOptions.AliasAnalysis);
  Visit(Field{"sched", "issue_width", {1.0, 4294967295.0}},
        C.SchedOptions.IssueWidth);
  // Accepted and round-tripped, with no effect (dag/Reachability.h).
  Visit(Field{"closure", "mode", {}, /*InKey=*/false}, C.Closure.Mode);
  Visit(Field{"closure", "on_demand_threshold", {}, /*InKey=*/false},
        C.Closure.OnDemandThreshold);
  Visit(Field{"", "run_regalloc"}, C.RunRegAlloc);
  Visit(Field{"", "second_scheduling_pass"}, C.SecondSchedulingPass);
  Visit(Field{"", "honor_known_latency"}, C.HonorKnownLatency);
  Visit(Field{"", "rename_after_allocation"}, C.RenameAfterAllocation);
  Visit(Field{"", "certify"}, C.Certify);
  // Budget fields change compiled output (admission failures, degraded
  // schedules), so they are keyed. The uint64 limits keep their full type
  // range: all of it is meaningful to the governor.
  Visit(Field{"budget", "deadline_ms",
              {0.0, std::numeric_limits<double>::max()}},
        C.Budget.DeadlineMs);
  Visit(Field{"budget", "max_ticks"}, C.Budget.MaxTicks);
  Visit(Field{"budget", "max_instructions_per_block"},
        C.Budget.MaxInstructionsPerBlock);
  Visit(Field{"budget", "max_dag_edges"}, C.Budget.MaxDagEdges);
  Visit(Field{"budget", "max_closure_bits"}, C.Budget.MaxClosureBits);
  Visit(Field{"budget", "max_spill_slots"}, C.Budget.MaxSpillSlots);
  Visit(Field{"budget", "degrade"}, C.Budget.Degrade);
}

//===----------------------------------------------------------------------===//
// What each kind of member does, chosen by its type.
//===----------------------------------------------------------------------===//

std::string nameOf(SchedulerPolicy Policy) { return policyName(Policy); }
std::string nameOf(ClosureMode Mode) { return closureModeName(Mode); }

Opcode opcodeAt(unsigned Index) { return static_cast<Opcode>(Index); }

template <typename T> void writeValue(JsonWriter &W, const T &V) {
  if constexpr (std::is_enum_v<T>)
    W.value(nameOf(V));
  else
    W.value(V);
}

void writeValue(JsonWriter &W, const LatencyModel &Ops) {
  // Only non-unit operation latencies are emitted; the paper's baseline
  // machine is all-ones and stays implicit.
  W.beginObject();
  for (unsigned Op = 0; Op != NumOpcodes; ++Op)
    if (double Latency = Ops.opLatency(opcodeAt(Op)); Latency != 1.0)
      W.key(opcodeName(opcodeAt(Op))).value(Latency);
  W.endObject();
}

/// Values only, one space before each: the row order names them.
template <typename T> void appendKey(std::string &Key, const T &V) {
  if constexpr (std::is_same_v<T, LatencyModel>) {
    for (unsigned Op = 0; Op != NumOpcodes; ++Op)
      appendHexExact(Key, V.opLatency(opcodeAt(Op)));
  } else if constexpr (std::is_same_v<T, double>) {
    appendHexExact(Key, V);
  } else {
    Key += ' ';
    if constexpr (std::is_enum_v<T>)
      Key += nameOf(V);
    else
      Key += std::to_string(V); // bool as 0/1, like the other integers.
  }
}

template <typename T>
void readValue(JsonReader &R, std::string_view Name, const JsonValue &V,
               T &Out) {
  R.read(V, Name, Out);
}

void readValue(JsonReader &R, std::string_view Name, const JsonValue &V,
               SchedulerPolicy &Out) {
  std::string Text;
  if (!R.read(V, Name, Text))
    return;
  ErrorOr<SchedulerPolicy> Parsed = parsePolicyName(Text);
  if (Parsed)
    Out = *Parsed;
  else
    R.Diags.insert(R.Diags.end(), Parsed.errors().begin(),
                   Parsed.errors().end());
}

void readValue(JsonReader &R, std::string_view Name, const JsonValue &V,
               ClosureMode &Out) {
  if (!V.isString() || !parseClosureModeName(V.asString(), Out))
    R.error(DiagCode::ProtocolBadValue,
            "config key '" + R.path(Name) +
                "' expects one of \"auto\", \"materialized\", "
                "\"blocked\", \"on-demand\"");
}

void readValue(JsonReader &R, std::string_view Name, const JsonValue &V,
               LatencyModel &Out) {
  if (!V.isObject()) {
    R.typeError(Name, "object", V);
    return;
  }
  std::string_view Outer = R.Scope;
  R.Scope = Name;
  for (const JsonValue::Member &M : V.members()) {
    std::optional<Opcode> Op = parseOpcode(M.first);
    if (!Op) {
      R.error(DiagCode::ProtocolBadValue,
              "op_latencies: unknown opcode '" + M.first + "'");
      continue;
    }
    double Latency = 1.0;
    if (!R.read(M.second, M.first, Latency))
      continue;
    // Below one cycle is a parse error, not a range error: setOpLatency
    // refuses it outright.
    if (Latency < 1.0)
      R.error(DiagCode::ProtocolBadValue,
              R.path(M.first) + ": latency must be >= 1 cycle");
    else
      Out.setOpLatency(*Op, Latency);
  }
  R.Scope = Outer;
}

/// Shortest round-trip spelling of \p V ("2.5", "1e+09", "inf", "26").
template <typename T> std::string numberText(T V) {
  char Buf[32];
  return std::string(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// A BS500 unless \p V lies in \p F's range. \p Op is the op_latencies
/// entry that \p V belongs to, if any.
template <typename T>
void checkRange(std::vector<Diagnostic> &Diags, const Field &F, T V,
                std::optional<Opcode> Op = std::nullopt) {
  const Range &Accepts = F.Accepts;
  if (Accepts.contains(static_cast<double>(V)))
    return;
  std::string Path(F.Name);
  if (!F.Section.empty())
    Path = std::string(F.Section) + "." + Path;
  if (Op)
    Path += "." + std::string(opcodeName(*Op));
  Diags.push_back({0, 0,
                   "config key '" + Path + "' must be in " +
                       (Accepts.OpenMin ? "(" : "[") +
                       numberText(Accepts.Min) + ", " +
                       numberText(Accepts.Max) + "], got " + numberText(V),
                   Severity::Error, DiagCode::PipelineBadConfig});
}

/// Reads member \p Key of the object named \p Section into the field
/// listed under that name; false when the list has no such field.
bool readField(JsonReader &R, PipelineConfig &Config,
               std::string_view Section, std::string_view Key,
               const JsonValue &V) {
  bool Found = false;
  forEachField(Config, [&](const Field &F, auto &Member) {
    if (!Found && F.Name == Key && F.Section == Section) {
      Found = true;
      readValue(R, Key, V, Member);
    }
  });
  return Found;
}

} // namespace

std::string PipelineConfig::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("schema_version").value(SchemaVersion);
  std::string_view Open; // The section whose object is being written.
  forEachField(*this, [&](const Field &F, const auto &Member) {
    if (F.Section != Open) {
      if (!Open.empty())
        W.endObject();
      if (!F.Section.empty())
        W.key(F.Section).beginObject();
      Open = F.Section;
    }
    W.key(F.Name);
    writeValue(W, Member);
  });
  if (!Open.empty())
    W.endObject();
  W.endObject();
  return W.str();
}

ErrorOr<PipelineConfig> PipelineConfig::fromJson(std::string_view Json) {
  ErrorOr<JsonValue> Doc = parseJson(Json);
  if (!Doc)
    return Doc.takeErrors();
  return fromJsonValue(*Doc);
}

ErrorOr<PipelineConfig> PipelineConfig::fromJsonValue(const JsonValue &Doc) {
  JsonReader R("config");
  PipelineConfig Config = PipelineConfig::paperDefault();
  if (!Doc.isObject())
    R.typeError("", "object", Doc);
  for (const JsonValue::Member &M : Doc.members()) {
    const std::string &Key = M.first;
    if (Key == "schema_version") {
      R.checkSchemaVersion(M.second, SchemaVersion);
      continue;
    }
    if (readField(R, Config, "", Key, M.second))
      continue;
    bool IsSection = false;
    forEachField(Config, [&](const Field &F, const auto &) {
      IsSection |= F.Section == Key;
    });
    if (!IsSection) {
      R.unknownKey(Key);
      continue;
    }
    if (!M.second.isObject()) {
      R.typeError(Key, "object", M.second);
      continue;
    }
    R.Scope = Key;
    for (const JsonValue::Member &S : M.second.members())
      if (!readField(R, Config, Key, S.first, S.second))
        R.unknownKey(S.first);
    R.Scope = {};
  }

  if (!R.Diags.empty())
    return std::move(R.Diags);
  return Config;
}

std::string bsched::configCacheKey(const PipelineConfig &Config) {
  std::string Key = "\n#config";
  forEachField(Config, [&Key](const Field &F, const auto &Member) {
    if (F.InKey)
      appendKey(Key, Member);
  });
  return Key;
}

Status bsched::validatePipelineConfig(const PipelineConfig &Config) {
  std::vector<Diagnostic> Diags;
  forEachField(Config, [&Diags](const Field &F, const auto &Member) {
    using T = std::decay_t<decltype(Member)>;
    if constexpr (std::is_same_v<T, LatencyModel>) {
      for (unsigned Op = 0; Op != NumOpcodes; ++Op)
        checkRange(Diags, F, Member.opLatency(opcodeAt(Op)), opcodeAt(Op));
    } else if constexpr (std::is_arithmetic_v<T> &&
                         !std::is_same_v<T, bool>) {
      checkRange(Diags, F, Member);
    }
  });

  // The one rule across fields. generalRegs() needs Total > Reserved + 2
  // per class; the integer class additionally reserves the frame pointer.
  // 64-bit sums, so a pool near UINT_MAX cannot wrap past the check.
  if (Config.RunRegAlloc) {
    auto BadConfig = [&Diags](std::string Message) {
      Diags.push_back({0, 0, std::move(Message), Severity::Error,
                       DiagCode::PipelineBadConfig});
    };
    uint64_t IntReserved = uint64_t(Config.Target.SpillPoolSize) + 1;
    uint64_t FpReserved = Config.Target.SpillPoolSize;
    if (Config.Target.NumIntRegs <= IntReserved + 2)
      BadConfig("integer register file too small: " +
                std::to_string(Config.Target.NumIntRegs) +
                " registers cannot hold a spill pool of " +
                std::to_string(Config.Target.SpillPoolSize));
    if (Config.Target.NumFpRegs <= FpReserved + 2)
      BadConfig("floating-point register file too small: " +
                std::to_string(Config.Target.NumFpRegs) +
                " registers cannot hold a spill pool of " +
                std::to_string(Config.Target.SpillPoolSize));
  }
  return Status(std::move(Diags));
}
