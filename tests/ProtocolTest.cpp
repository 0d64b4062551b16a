//===- tests/ProtocolTest.cpp - Versioned request/config API tests --------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// The schema-v1 surface of the compile service (DESIGN.md §3j): the JSON
// document parser, the PipelineConfig round-trip (golden-pinned — a field
// added without a schema bump fails here), the request/response envelope,
// the shared CLI flag parser, and the compile-cache key coverage test
// that pins which PipelineConfig fields are (and are not) part of a
// compilation's identity.
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"
#include "pipeline/CompileCache.h"
#include "pipeline/Pipeline.h"
#include "server/Protocol.h"
#include "support/CliOptions.h"
#include "support/JsonValue.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

using namespace bsched;

namespace {

//===----------------------------------------------------------------------===//
// JsonValue: the read side of the JSON story.
//===----------------------------------------------------------------------===//

TEST(JsonValueTest, ParsesScalarsAndContainers) {
  ErrorOr<JsonValue> Doc =
      parseJson(R"({"a":1.5,"b":"x\nA","c":[true,null],"d":{}})");
  ASSERT_TRUE(Doc.has_value());
  ASSERT_TRUE(Doc->isObject());
  EXPECT_DOUBLE_EQ(Doc->find("a")->asNumber(), 1.5);
  EXPECT_EQ(Doc->find("b")->asString(), "x\nA");
  ASSERT_TRUE(Doc->find("c")->isArray());
  EXPECT_EQ(Doc->find("c")->elements().size(), 2u);
  EXPECT_TRUE(Doc->find("c")->elements()[0].asBool());
  EXPECT_TRUE(Doc->find("c")->elements()[1].isNull());
  EXPECT_TRUE(Doc->find("d")->isObject());
  EXPECT_EQ(Doc->find("missing"), nullptr);
}

TEST(JsonValueTest, MalformedInputIsBS900WithLocation) {
  ErrorOr<JsonValue> Doc = parseJson("{\"a\":\n  12,,}");
  ASSERT_FALSE(Doc.has_value());
  ASSERT_FALSE(Doc.errors().empty());
  const Diagnostic &D = Doc.errors().front();
  EXPECT_EQ(D.Code, DiagCode::JsonParseError);
  EXPECT_EQ(D.Line, 2u); // The offending byte, not just "somewhere".
}

TEST(JsonValueTest, TrailingGarbageRejected) {
  EXPECT_FALSE(parseJson("{} tail").has_value());
  EXPECT_TRUE(parseJson("{}  \n ").has_value());
}

TEST(JsonValueTest, DepthCapBoundsRecursion) {
  std::string Deep(200, '[');
  Deep.append(200, ']');
  EXPECT_FALSE(parseJson(Deep, /*MaxDepth=*/64).has_value());
  EXPECT_TRUE(parseJson("[[[[]]]]", /*MaxDepth=*/8).has_value());
}

TEST(JsonValueTest, DuplicateKeysPreservedInOrder) {
  ErrorOr<JsonValue> Doc = parseJson(R"({"k":1,"k":2})");
  ASSERT_TRUE(Doc.has_value());
  ASSERT_EQ(Doc->members().size(), 2u);
  EXPECT_DOUBLE_EQ(Doc->members()[0].second.asNumber(), 1.0);
  EXPECT_DOUBLE_EQ(Doc->members()[1].second.asNumber(), 2.0);
}

TEST(JsonValueTest, UInt64RejectsFractionsAndNegatives) {
  uint64_t Out = 0;
  ASSERT_TRUE(parseJson("3")->asUInt64(Out));
  EXPECT_EQ(Out, 3u);
  EXPECT_FALSE(parseJson("3.5")->asUInt64(Out));
  EXPECT_FALSE(parseJson("-1")->asUInt64(Out));
}

TEST(JsonValueTest, UInt64ReadsBareDigitsExactly) {
  // A double holds integers exactly only up to 2^53; bare digits that fit
  // in 64 bits keep their exact value.
  uint64_t Out = 0;
  ASSERT_TRUE(parseJson("9007199254740993")->asUInt64(Out));
  EXPECT_EQ(Out, (uint64_t(1) << 53) + 1);
  ASSERT_TRUE(parseJson("18446744073709551615")->asUInt64(Out));
  EXPECT_EQ(Out, UINT64_MAX);
  ASSERT_TRUE(parseJson("1e3")->asUInt64(Out)); // Other spellings: double.
  EXPECT_EQ(Out, 1000u);
  EXPECT_FALSE(parseJson("18446744073709551616")->asUInt64(Out)); // 2^64
  EXPECT_FALSE(parseJson("0.5")->asUInt64(Out));
  EXPECT_DOUBLE_EQ(parseJson("18446744073709551615")->asNumber(), 0x1p64);
}

//===----------------------------------------------------------------------===//
// PipelineConfig schema v1.
//===----------------------------------------------------------------------===//

// The golden pin: this exact string is schema v1. Reordering, renaming,
// or removing a field is a schema event — bump SchemaVersion and provide
// a migration. Adding a key whose absence means its default (every v1
// document keeps parsing to the same config) stays within v1; update the
// string alongside the new knob.
constexpr const char *PaperDefaultJson =
    "{\"schema_version\":1,\"policy\":\"balanced\",\"optimistic_latency\":2,"
    "\"op_latencies\":{},"
    "\"target\":{\"int_regs\":26,\"fp_regs\":16,\"spill_pool_size\":4,"
    "\"fifo_spill_pool\":true},"
    "\"dag\":{\"disambiguate_same_base\":true,\"alias_analysis\":true},"
    "\"sched\":{\"issue_width\":1},"
    "\"closure\":{\"mode\":\"auto\",\"on_demand_threshold\":2048},"
    "\"run_regalloc\":true,\"second_scheduling_pass\":true,"
    "\"honor_known_latency\":true,\"rename_after_allocation\":false,"
    "\"certify\":true,"
    "\"budget\":{\"deadline_ms\":0,\"max_ticks\":0,"
    "\"max_instructions_per_block\":0,\"max_dag_edges\":0,"
    "\"max_closure_bits\":0,\"max_spill_slots\":0,\"degrade\":true}}";

TEST(ConfigJsonTest, PaperDefaultGolden) {
  EXPECT_EQ(PipelineConfig::paperDefault().toJson(), PaperDefaultJson);
}

TEST(ConfigJsonTest, EmptyObjectIsPaperDefault) {
  ErrorOr<PipelineConfig> Config = PipelineConfig::fromJson("{}");
  ASSERT_TRUE(Config.has_value());
  EXPECT_EQ(Config->toJson(), PaperDefaultJson);
}

TEST(ConfigJsonTest, RoundTripPreservesEveryKnob) {
  PipelineConfig Config = PipelineConfig::paperDefault();
  Config.Policy = SchedulerPolicy::Traditional;
  Config.OptimisticLatency = 3.5;
  Config.Ops.setOpLatency(Opcode::FMul, 4.0);
  Config.Target.NumIntRegs = 12;
  Config.Target.NumFpRegs = 6;
  Config.Target.SpillPoolSize = 2;
  Config.Target.FifoSpillPool = false;
  Config.DagOptions.DisambiguateSameBase = false;
  Config.DagOptions.AliasAnalysis = false;
  Config.SchedOptions.IssueWidth = 4;
  Config.Closure.Mode = ClosureMode::OnDemand;
  Config.Closure.OnDemandThreshold = 512;
  Config.RunRegAlloc = false;
  Config.SecondSchedulingPass = false;
  Config.HonorKnownLatency = false;
  Config.RenameAfterAllocation = true;
  Config.Certify = false;
  Config.Budget.DeadlineMs = 12.5;
  Config.Budget.MaxTicks = 1000;
  Config.Budget.MaxInstructionsPerBlock = 64;
  Config.Budget.MaxDagEdges = 4096;
  Config.Budget.MaxClosureBits = 1 << 20;
  Config.Budget.MaxSpillSlots = 7;
  Config.Budget.Degrade = false;

  ErrorOr<PipelineConfig> Parsed = PipelineConfig::fromJson(Config.toJson());
  ASSERT_TRUE(Parsed.has_value()) << Parsed.errorText();
  EXPECT_EQ(Parsed->toJson(), Config.toJson());
  EXPECT_EQ(Parsed->Policy, SchedulerPolicy::Traditional);
  EXPECT_DOUBLE_EQ(Parsed->Ops.opLatency(Opcode::FMul), 4.0);
  EXPECT_EQ(Parsed->SchedOptions.IssueWidth, 4u);
  EXPECT_DOUBLE_EQ(Parsed->Budget.DeadlineMs, 12.5);
  EXPECT_FALSE(Parsed->Budget.Degrade);
}

TEST(ConfigJsonTest, ExtremeValidValuesRoundTripExactly) {
  // The largest value of every field that validates survives its own
  // document: bytes and cache key.
  PipelineConfig Config = PipelineConfig::paperDefault();
  Config.OptimisticLatency = 1024.0;
  Config.Ops.setOpLatency(Opcode::FDiv, 1024.0);
  Config.Target.NumIntRegs = 1024;
  Config.Target.NumFpRegs = 1024;
  Config.SchedOptions.IssueWidth = UINT32_MAX;
  Config.Closure.OnDemandThreshold = UINT32_MAX;
  Config.Budget.DeadlineMs = std::numeric_limits<double>::max();
  Config.Budget.MaxTicks = UINT64_MAX;
  Config.Budget.MaxInstructionsPerBlock = UINT64_MAX;
  Config.Budget.MaxDagEdges = UINT64_MAX;
  Config.Budget.MaxClosureBits = UINT64_MAX;
  Config.Budget.MaxSpillSlots = (uint64_t(1) << 53) + 1;
  ASSERT_TRUE(Config.validate().ok());

  ErrorOr<PipelineConfig> Parsed = PipelineConfig::fromJson(Config.toJson());
  ASSERT_TRUE(Parsed.has_value()) << Parsed.errorText();
  EXPECT_EQ(Parsed->toJson(), Config.toJson());
  EXPECT_EQ(configCacheKey(*Parsed), configCacheKey(Config));
  EXPECT_EQ(Parsed->Budget.MaxTicks, UINT64_MAX);
  EXPECT_EQ(Parsed->Budget.MaxSpillSlots, (uint64_t(1) << 53) + 1);
}

TEST(ConfigJsonTest, UnsupportedSchemaVersionIsBS901) {
  ErrorOr<PipelineConfig> Config =
      PipelineConfig::fromJson(R"({"schema_version":2})");
  ASSERT_FALSE(Config.has_value());
  EXPECT_EQ(Config.errors().front().Code, DiagCode::ProtocolSchemaVersion);
  EXPECT_NE(Config.errors().front().Message.find("this build speaks v1"),
            std::string::npos);
}

TEST(ConfigJsonTest, UnknownKeyIsBS902NotSilentDefault) {
  ErrorOr<PipelineConfig> Config =
      PipelineConfig::fromJson(R"({"certfy":true})");
  ASSERT_FALSE(Config.has_value());
  EXPECT_EQ(Config.errors().front().Code, DiagCode::ProtocolUnknownKey);
  EXPECT_NE(Config.errors().front().Message.find("'certfy'"),
            std::string::npos);
}

TEST(ConfigJsonTest, NestedUnknownKeyNamesTheFullPath) {
  ErrorOr<PipelineConfig> Config =
      PipelineConfig::fromJson(R"({"budget":{"max_tics":5}})");
  ASSERT_FALSE(Config.has_value());
  EXPECT_NE(Config.errors().front().Message.find("'budget.max_tics'"),
            std::string::npos);
}

TEST(ConfigJsonTest, TypeMismatchIsBS903) {
  ErrorOr<PipelineConfig> Config =
      PipelineConfig::fromJson(R"({"certify":"yes"})");
  ASSERT_FALSE(Config.has_value());
  EXPECT_EQ(Config.errors().front().Code, DiagCode::ProtocolBadValue);
  EXPECT_NE(Config.errors().front().Message.find("expects a boolean"),
            std::string::npos);
}

TEST(ConfigJsonTest, AliasAnalysisKnobRoundTripsAndRejects) {
  // Off round-trips...
  ErrorOr<PipelineConfig> Off =
      PipelineConfig::fromJson(R"({"dag":{"alias_analysis":false}})");
  ASSERT_TRUE(Off.has_value()) << Off.errorText();
  EXPECT_FALSE(Off->DagOptions.AliasAnalysis);
  EXPECT_NE(Off->toJson().find("\"alias_analysis\":false"),
            std::string::npos);
  // ...a misspelling is BS902 with the full path...
  ErrorOr<PipelineConfig> Bad =
      PipelineConfig::fromJson(R"({"dag":{"alias_anlysis":true}})");
  ASSERT_FALSE(Bad.has_value());
  EXPECT_EQ(Bad.errors().front().Code, DiagCode::ProtocolUnknownKey);
  EXPECT_NE(Bad.errors().front().Message.find("'dag.alias_anlysis'"),
            std::string::npos);
  // ...and a non-boolean value is BS903.
  ErrorOr<PipelineConfig> Wrong =
      PipelineConfig::fromJson(R"({"dag":{"alias_analysis":1}})");
  ASSERT_FALSE(Wrong.has_value());
  EXPECT_EQ(Wrong.errors().front().Code, DiagCode::ProtocolBadValue);
}

TEST(ConfigJsonTest, BadOpLatencyRejected) {
  EXPECT_FALSE(
      PipelineConfig::fromJson(R"({"op_latencies":{"nosuchop":2}})")
          .has_value());
  EXPECT_FALSE(
      PipelineConfig::fromJson(R"({"op_latencies":{"fmul":0.5}})")
          .has_value());
  EXPECT_TRUE(
      PipelineConfig::fromJson(R"({"op_latencies":{"fmul":2}})").has_value());
}

TEST(ConfigJsonTest, UnknownPolicyNameReported) {
  EXPECT_FALSE(PipelineConfig::fromJson(R"({"policy":"quantum"})")
                   .has_value());
}

TEST(ConfigJsonTest, MalformedDocumentIsBS900) {
  ErrorOr<PipelineConfig> Config = PipelineConfig::fromJson("{certify:");
  ASSERT_FALSE(Config.has_value());
  EXPECT_EQ(Config.errors().front().Code, DiagCode::JsonParseError);
}

TEST(ConfigJsonTest, AllFieldErrorsCollectedInOnePass) {
  // Misspelled key + type mismatch + bad version: the caller sees all
  // three, not just the first.
  ErrorOr<PipelineConfig> Config = PipelineConfig::fromJson(
      R"({"schema_version":9,"certify":1,"wat":true})");
  ASSERT_FALSE(Config.has_value());
  EXPECT_EQ(Config.errors().size(), 3u);
}

//===----------------------------------------------------------------------===//
// Request/response envelope.
//===----------------------------------------------------------------------===//

TEST(ProtocolTest, RequestRoundTrip) {
  CompileRequest Request;
  Request.Id = "r42";
  Request.Kernel = "func @k {\n}\n";
  Request.Config.Policy = SchedulerPolicy::Traditional;
  Request.Config.SchedOptions.IssueWidth = 2;
  Request.WantSchedule = false;
  Request.WantMetrics = true;

  ErrorOr<CompileRequest> Parsed = CompileRequest::fromJson(Request.toJson());
  ASSERT_TRUE(Parsed.has_value()) << Parsed.errorText();
  EXPECT_EQ(Parsed->Id, "r42");
  EXPECT_EQ(Parsed->Op, RequestOp::Compile);
  EXPECT_EQ(Parsed->Kernel, Request.Kernel);
  EXPECT_EQ(Parsed->Config.toJson(), Request.Config.toJson());
  EXPECT_FALSE(Parsed->WantSchedule);
  EXPECT_TRUE(Parsed->WantMetrics);
  EXPECT_EQ(Parsed->toJson(), Request.toJson());
}

TEST(ProtocolTest, NonCompileOpsOmitCompileFields) {
  CompileRequest Ping;
  Ping.Id = "p";
  Ping.Op = RequestOp::Ping;
  Ping.Kernel = "ignored";
  std::string Json = Ping.toJson();
  EXPECT_EQ(Json.find("kernel"), std::string::npos);
  EXPECT_EQ(Json.find("config"), std::string::npos);
  ErrorOr<CompileRequest> Parsed = CompileRequest::fromJson(Json);
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(Parsed->Op, RequestOp::Ping);
}

TEST(ProtocolTest, MetricsOpRoundTripsWithFormat) {
  CompileRequest Request;
  Request.Id = "m";
  Request.Op = RequestOp::Metrics;
  // The default format is elided from the wire form.
  EXPECT_EQ(Request.toJson().find("metrics_format"), std::string::npos);

  Request.MetricsFormat = "prometheus";
  std::string Json = Request.toJson();
  EXPECT_NE(Json.find("\"metrics_format\":\"prometheus\""),
            std::string::npos);
  ErrorOr<CompileRequest> Parsed = CompileRequest::fromJson(Json);
  ASSERT_TRUE(Parsed.has_value()) << Parsed.errorText();
  EXPECT_EQ(Parsed->Op, RequestOp::Metrics);
  EXPECT_EQ(Parsed->MetricsFormat, "prometheus");
  EXPECT_EQ(Parsed->toJson(), Json);
}

TEST(ProtocolTest, UnknownMetricsFormatIsStructuredError) {
  ErrorOr<CompileRequest> Parsed = CompileRequest::fromJson(
      R"({"schema_version":1,"op":"metrics","metrics_format":"xml"})");
  ASSERT_FALSE(Parsed.has_value());
  EXPECT_EQ(Parsed.errors().front().Code, DiagCode::ProtocolBadValue);
  EXPECT_NE(Parsed.errorText().find("xml"), std::string::npos);
}

TEST(ProtocolTest, ResponseCarriesMetricsText) {
  CompileResponse Response;
  Response.Id = "m";
  Response.Ok = true;
  Response.MetricsText = "# TYPE a counter\na 1\n";
  ErrorOr<CompileResponse> Parsed =
      CompileResponse::fromJson(Response.toJson());
  ASSERT_TRUE(Parsed.has_value()) << Parsed.errorText();
  EXPECT_EQ(Parsed->MetricsText, Response.MetricsText);
}

TEST(ProtocolTest, UnknownOpIsStructuredError) {
  ErrorOr<CompileRequest> Parsed = CompileRequest::fromJson(
      R"({"schema_version":1,"op":"transpile"})");
  ASSERT_FALSE(Parsed.has_value());
  EXPECT_EQ(Parsed.errors().front().Code, DiagCode::ProtocolBadValue);
}

TEST(ProtocolTest, RequestUnknownKeyIsBS902) {
  ErrorOr<CompileRequest> Parsed =
      CompileRequest::fromJson(R"({"schema_version":1,"kernl":"x"})");
  ASSERT_FALSE(Parsed.has_value());
  EXPECT_EQ(Parsed.errors().front().Code, DiagCode::ProtocolUnknownKey);
}

TEST(ProtocolTest, RequestMustBeAnObject) {
  EXPECT_FALSE(CompileRequest::fromJson("[1,2]").has_value());
  EXPECT_FALSE(CompileRequest::fromJson("not json").has_value());
}

TEST(ProtocolTest, EmbeddedConfigErrorsSurfaceOnTheRequest) {
  ErrorOr<CompileRequest> Parsed = CompileRequest::fromJson(
      R"({"schema_version":1,"config":{"certfy":true}})");
  ASSERT_FALSE(Parsed.has_value());
  EXPECT_EQ(Parsed.errors().front().Code, DiagCode::ProtocolUnknownKey);
}

TEST(ProtocolTest, ResponseRoundTripWithDiagnostics) {
  CompileResponse Response;
  Response.Id = "r1";
  Response.Ok = false;
  Response.CacheHit = true;
  Response.Degradation = "union-find-chances";
  Response.StaticInstructions = 17;
  Response.StaticSpills = 3;
  Response.DynamicInstructions = 123.5;
  Response.DynamicSpills = 4.25;
  Response.WallMs = 1.5;
  Response.Schedule = "func @k {\n}\n";
  Response.Diags.push_back({7, 3, "expected 'func'", Severity::Error,
                            DiagCode::ParseExpectedToken});
  Response.Diags.push_back({0, 0, "deadline", Severity::Warning,
                            DiagCode::GovernorDeadlineExceeded});

  ErrorOr<CompileResponse> Parsed =
      CompileResponse::fromJson(Response.toJson());
  ASSERT_TRUE(Parsed.has_value()) << Parsed.errorText();
  EXPECT_EQ(Parsed->Id, "r1");
  EXPECT_FALSE(Parsed->Ok);
  EXPECT_TRUE(Parsed->CacheHit);
  EXPECT_EQ(Parsed->Degradation, "union-find-chances");
  EXPECT_EQ(Parsed->StaticInstructions, 17u);
  EXPECT_DOUBLE_EQ(Parsed->DynamicInstructions, 123.5);
  EXPECT_EQ(Parsed->Schedule, Response.Schedule);
  ASSERT_EQ(Parsed->Diags.size(), 2u);
  EXPECT_EQ(Parsed->Diags[0].Code, DiagCode::ParseExpectedToken);
  EXPECT_EQ(Parsed->Diags[0].Line, 7u);
  EXPECT_EQ(Parsed->Diags[0].Sev, Severity::Error);
  EXPECT_EQ(Parsed->Diags[1].Sev, Severity::Warning);
  EXPECT_EQ(Parsed->toJson(), Response.toJson());
}

/// A serialized failing response with one diagnostic (BS201 at line 3,
/// col 4), its member text \p Pinned replaced by \p Replacement.
std::string responseReplacing(const std::string &Pinned,
                              const std::string &Replacement) {
  CompileResponse Response;
  Response.Id = "r";
  Response.Diags.push_back(
      {3, 4, "x", Severity::Error, DiagCode::ParseUnknownMnemonic});
  std::string Json = Response.toJson();
  Json.replace(Json.find(Pinned), Pinned.size(), Replacement);
  return Json;
}

/// A serialized failing response whose one diagnostic carries \p Code.
std::string responseWithCode(const std::string &Code) {
  return responseReplacing("\"code\":\"BS201\"",
                           "\"code\":\"" + Code + "\"");
}

TEST(ProtocolTest, ResponseDiagnosticCodesRoundTripIncludingUnassigned) {
  ErrorOr<CompileResponse> Known =
      CompileResponse::fromJson(responseWithCode("BS201"));
  ASSERT_TRUE(Known.has_value()) << Known.errorText();
  EXPECT_EQ(Known->Diags.at(0).Code, DiagCode::ParseUnknownMnemonic);

  // The enum is open: an unassigned number keeps its value.
  ErrorOr<CompileResponse> Unassigned =
      CompileResponse::fromJson(responseWithCode("BS4242"));
  ASSERT_TRUE(Unassigned.has_value()) << Unassigned.errorText();
  EXPECT_EQ(static_cast<unsigned>(Unassigned->Diags.at(0).Code), 4242u);
  EXPECT_EQ(Unassigned->toJson(), responseWithCode("BS4242"));
}

TEST(ProtocolTest, MalformedResponseDiagnosticCodesAreBadValues) {
  // Too large for the code space (used to wrap to BS201), trailing
  // garbage (used to read as BS2), and an overflowing number.
  for (const char *Code : {"BS65537", "BS65737", "BS2x1", "BS99999999999",
                           "BS", "BS-1", "BS+1", "BS 1", "201"}) {
    ErrorOr<CompileResponse> Parsed =
        CompileResponse::fromJson(responseWithCode(Code));
    ASSERT_FALSE(Parsed.has_value()) << Code;
    ASSERT_EQ(Parsed.errors().size(), 1u) << Code;
    EXPECT_EQ(Parsed.errors().front().Code, DiagCode::ProtocolBadValue)
        << Code;
  }
}

/// A serialized failing response whose one diagnostic has \p Member
/// ("line" or "col") set to the JSON text \p Value.
std::string responseWithLocation(const std::string &Member,
                                 const std::string &Value) {
  return responseReplacing(
      "\"" + Member + "\":" + (Member == "line" ? "3" : "4"),
      "\"" + Member + "\":" + Value);
}

TEST(ProtocolTest, ResponseDiagnosticLocationsAreCheckedUnsigned) {
  // Past the unsigned range (used to wrap to line 1), a string and a
  // negative number (both used to read as 0).
  const std::pair<const char *, const char *> Bad[] = {
      {"line", "4294967297"}, {"line", "\"7\""}, {"col", "-1"}};
  for (const auto &[Member, Value] : Bad) {
    ErrorOr<CompileResponse> Parsed =
        CompileResponse::fromJson(responseWithLocation(Member, Value));
    ASSERT_FALSE(Parsed.has_value()) << Member << "=" << Value;
    ASSERT_EQ(Parsed.errors().size(), 1u) << Member << "=" << Value;
    EXPECT_EQ(Parsed.errors().front().Code, DiagCode::ProtocolBadValue)
        << Member << "=" << Value;
  }

  for (const char *Member : {"line", "col"}) {
    std::string Json = responseWithLocation(Member, "4294967295");
    ErrorOr<CompileResponse> Parsed = CompileResponse::fromJson(Json);
    ASSERT_TRUE(Parsed.has_value()) << Member << ": " << Parsed.errorText();
    const Diagnostic &D = Parsed->Diags.at(0);
    EXPECT_EQ(std::string(Member) == "line" ? D.Line : D.Col, 4294967295u);
    EXPECT_EQ(Parsed->toJson(), Json);
  }
}

//===----------------------------------------------------------------------===//
// Shared CLI flag parsing (support/CliOptions.h).
//===----------------------------------------------------------------------===//

/// Runs the parser over an argv; returns indices it did not consume.
std::vector<int> runCli(CliOptionParser &Cli, std::vector<const char *> Args,
                        bool &SawError) {
  Args.insert(Args.begin(), "tool");
  std::vector<int> Mine;
  SawError = false;
  for (int I = 1; I < static_cast<int>(Args.size()); ++I) {
    CliOptionParser::Match M = Cli.tryParse(
        static_cast<int>(Args.size()), const_cast<char **>(Args.data()), I);
    if (M == CliOptionParser::Match::Error)
      SawError = true;
    else if (M == CliOptionParser::Match::NotMine)
      Mine.push_back(I);
  }
  return Mine;
}

TEST(CliOptionsTest, BudgetFlagsParsed) {
  CliOptionParser Cli(CliOptionParser::WantBudget);
  bool Err = false;
  std::vector<int> Rest =
      runCli(Cli, {"--deadline-ms", "12.5", "--max-instrs", "64"}, Err);
  EXPECT_FALSE(Err);
  EXPECT_TRUE(Rest.empty());
  EXPECT_DOUBLE_EQ(Cli.options().Budget.DeadlineMs, 12.5);
  EXPECT_EQ(Cli.options().Budget.MaxInstructionsPerBlock, 64u);
}

TEST(CliOptionsTest, BadBudgetValueIsError) {
  // strtoull would read "-1" as 2^64 - 1, i.e. no instruction limit.
  for (std::vector<const char *> Args :
       {std::vector<const char *>{"--deadline-ms", "soon"},
        std::vector<const char *>{"--max-instrs", "-1"}}) {
    CliOptionParser Cli(CliOptionParser::WantBudget);
    bool Err = false;
    runCli(Cli, Args, Err);
    EXPECT_TRUE(Err) << Args[0] << ' ' << Args[1];
    EXPECT_FALSE(Cli.error().empty());
    EXPECT_EQ(Cli.options().Budget.MaxInstructionsPerBlock, 0u);
  }
}

TEST(CliOptionsTest, PolicyCarriedAsText) {
  CliOptionParser Cli(CliOptionParser::WantPolicy);
  bool Err = false;
  runCli(Cli, {"--policy", "traditional"}, Err);
  EXPECT_FALSE(Err);
  EXPECT_TRUE(Cli.options().HasPolicy);
  EXPECT_EQ(Cli.options().PolicyText, "traditional");
  // The text is opaque here; conversion happens in the pipeline layer.
  ErrorOr<SchedulerPolicy> Parsed =
      parsePolicyName(Cli.options().PolicyText);
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(*Parsed, SchedulerPolicy::Traditional);
}

TEST(CliOptionsTest, UnwantedFlagFallsThroughAsNotMine) {
  CliOptionParser Cli(CliOptionParser::WantBudget); // No WantJson.
  bool Err = false;
  std::vector<int> Rest = runCli(Cli, {"--json", "--dot"}, Err);
  EXPECT_FALSE(Err);
  EXPECT_EQ(Rest.size(), 2u);
  EXPECT_FALSE(Cli.options().Json);
}

TEST(CliOptionsTest, JsonTraceAndConfigFlags) {
  CliOptionParser Cli(CliOptionParser::WantJson | CliOptionParser::WantTrace |
                      CliOptionParser::WantConfig);
  bool Err = false;
  std::vector<int> Rest = runCli(
      Cli, {"--json", "--trace-out=t.json", "--config", "cfg.json"}, Err);
  EXPECT_FALSE(Err);
  EXPECT_TRUE(Rest.empty());
  EXPECT_TRUE(Cli.options().Json);
  EXPECT_EQ(Cli.options().TraceOut, "t.json");
  EXPECT_EQ(Cli.options().ConfigFile, "cfg.json");
}

TEST(CliOptionsTest, UsageFragmentListsAcceptedFlags) {
  CliOptionParser Cli(CliOptionParser::WantCandidate |
                      CliOptionParser::WantBudget);
  std::string Usage = Cli.usageFragment();
  EXPECT_NE(Usage.find("--candidate"), std::string::npos);
  EXPECT_NE(Usage.find("--deadline-ms"), std::string::npos);
  EXPECT_EQ(Usage.find("--json"), std::string::npos);
  EXPECT_EQ(Usage.find("--log-file"), std::string::npos); // Not wanted.
}

TEST(CliOptionsTest, LogFlagsCarriedAsText) {
  CliOptionParser Cli(CliOptionParser::WantLog);
  bool Err = false;
  std::vector<int> Rest =
      runCli(Cli, {"--log-file", "out.ndjson", "--log-level", "debug"}, Err);
  EXPECT_FALSE(Err);
  EXPECT_TRUE(Rest.empty());
  EXPECT_EQ(Cli.options().LogFile, "out.ndjson");
  // The support layer sits below obs, so the level rides as text and the
  // logger validates it (configureGlobalLogger).
  EXPECT_EQ(Cli.options().LogLevelText, "debug");
  EXPECT_NE(Cli.usageFragment().find("--log-file"), std::string::npos);
  EXPECT_NE(Cli.usageFragment().find("--log-level"), std::string::npos);
}

TEST(CliOptionsTest, LogFlagsRequireValues) {
  CliOptionParser Cli(CliOptionParser::WantLog);
  bool Err = false;
  runCli(Cli, {"--log-file"}, Err);
  EXPECT_TRUE(Err);
  EXPECT_FALSE(Cli.error().empty());
}

//===----------------------------------------------------------------------===//
// Cache-key coverage: which PipelineConfig fields are a compile's identity.
//===----------------------------------------------------------------------===//

Function keyTestFunction() {
  const char *Source = R"(
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
  ParseResult Result = parseIr(Source);
  EXPECT_TRUE(Result.ok());
  return std::move(Result.Functions.front());
}

TEST(CacheKeyTest, EveryBehaviorAffectingFieldIsInTheKey) {
  Function F = keyTestFunction();
  const std::string Base =
      experimentCacheKey(F, PipelineConfig::paperDefault());

  // One mutation per behavior-affecting knob: each must move the key.
  std::vector<std::pair<const char *, PipelineConfig>> Mutants;
  auto Mutate = [&](const char *Name, auto Fn) {
    PipelineConfig C = PipelineConfig::paperDefault();
    Fn(C);
    Mutants.emplace_back(Name, std::move(C));
  };
  Mutate("policy", [](PipelineConfig &C) {
    C.Policy = SchedulerPolicy::Traditional;
  });
  Mutate("optimistic_latency",
         [](PipelineConfig &C) { C.OptimisticLatency = 9.0; });
  Mutate("op_latencies", [](PipelineConfig &C) {
    C.Ops.setOpLatency(Opcode::FMul, 5.0);
  });
  Mutate("int_regs", [](PipelineConfig &C) { C.Target.NumIntRegs = 9; });
  Mutate("fp_regs", [](PipelineConfig &C) { C.Target.NumFpRegs = 9; });
  Mutate("spill_pool_size",
         [](PipelineConfig &C) { C.Target.SpillPoolSize = 3; });
  Mutate("fifo_spill_pool",
         [](PipelineConfig &C) { C.Target.FifoSpillPool = false; });
  Mutate("disambiguate_same_base", [](PipelineConfig &C) {
    C.DagOptions.DisambiguateSameBase = false;
  });
  Mutate("alias_analysis", [](PipelineConfig &C) {
    C.DagOptions.AliasAnalysis = false;
  });
  Mutate("issue_width",
         [](PipelineConfig &C) { C.SchedOptions.IssueWidth = 2; });
  Mutate("run_regalloc", [](PipelineConfig &C) { C.RunRegAlloc = false; });
  Mutate("second_scheduling_pass",
         [](PipelineConfig &C) { C.SecondSchedulingPass = false; });
  Mutate("honor_known_latency",
         [](PipelineConfig &C) { C.HonorKnownLatency = false; });
  Mutate("rename_after_allocation",
         [](PipelineConfig &C) { C.RenameAfterAllocation = true; });
  Mutate("certify", [](PipelineConfig &C) { C.Certify = false; });
  Mutate("budget.deadline_ms",
         [](PipelineConfig &C) { C.Budget.DeadlineMs = 100.0; });
  Mutate("budget.max_ticks",
         [](PipelineConfig &C) { C.Budget.MaxTicks = 1000; });
  Mutate("budget.max_instructions_per_block",
         [](PipelineConfig &C) { C.Budget.MaxInstructionsPerBlock = 99; });
  Mutate("budget.max_dag_edges",
         [](PipelineConfig &C) { C.Budget.MaxDagEdges = 99; });
  Mutate("budget.max_spill_slots",
         [](PipelineConfig &C) { C.Budget.MaxSpillSlots = 99; });
  Mutate("budget.degrade",
         [](PipelineConfig &C) { C.Budget.Degrade = false; });

  for (const auto &[Name, Config] : Mutants)
    EXPECT_NE(experimentCacheKey(F, Config), Base)
        << "mutating '" << Name << "' must change the cache key";

  // The engine prints the program half once per run and appends each
  // config's half: the two halves must make up the key byte for byte.
  const std::string ProgramHalf = programCacheKey(F);
  EXPECT_EQ(ProgramHalf + configCacheKey(PipelineConfig::paperDefault()),
            Base);
  for (const auto &[Name, Config] : Mutants)
    EXPECT_EQ(ProgramHalf + configCacheKey(Config),
              experimentCacheKey(F, Config))
        << "the halves of the key for '" << Name << "'";

  // And distinct mutants must not collide with each other.
  std::vector<std::string> Keys;
  for (const auto &[Name, Config] : Mutants)
    Keys.push_back(experimentCacheKey(F, Config));
  std::sort(Keys.begin(), Keys.end());
  EXPECT_EQ(std::adjacent_find(Keys.begin(), Keys.end()), Keys.end());
}

TEST(CacheKeyTest, EveryLeafOfTheDocumentMovesTheKey) {
  // Needs no mutant per field: every leaf of the paper-default document
  // is mutated in place, and the one-leaf document it makes is reparsed.
  // Every leaf but the no-effect closure knobs and closure-bit budget
  // must move the key.
  const std::string Base = configCacheKey(PipelineConfig::paperDefault());
  ErrorOr<JsonValue> Doc = parseJson(PipelineConfig::paperDefault().toJson());
  ASSERT_TRUE(Doc.has_value());

  unsigned Keyed = 0, Unkeyed = 0;
  auto Check = [&](std::string_view Section, const JsonValue::Member &Leaf) {
    const std::string &Name = Leaf.first;
    const JsonValue &V = Leaf.second;
    std::string Mutated;
    if (V.isBool())
      Mutated = V.asBool() ? "false" : "true";
    else if (V.isNumber())
      Mutated = std::to_string(static_cast<uint64_t>(V.asNumber()) + 1);
    else if (Name == "policy")
      Mutated = "\"traditional\"";
    else if (Name == "mode")
      Mutated = "\"on-demand\"";
    else if (Name == "op_latencies")
      Mutated = R"({"fmul":2})";
    ASSERT_FALSE(Mutated.empty()) << "no mutation for leaf '" << Name << "'";
    std::string Member = "\"" + Name + "\":" + Mutated;
    std::string Json = Section.empty()
                           ? "{" + Member + "}"
                           : "{\"" + std::string(Section) + "\":{" +
                                 Member + "}}";
    ErrorOr<PipelineConfig> Parsed = PipelineConfig::fromJson(Json);
    ASSERT_TRUE(Parsed.has_value()) << Json << ": " << Parsed.errorText();
    EXPECT_TRUE(Parsed->validate().ok()) << Json;
    EXPECT_NE(Parsed->toJson(), PipelineConfig::paperDefault().toJson())
        << Json;
    if (Section == "closure" || Name == "max_closure_bits") {
      ++Unkeyed;
      EXPECT_EQ(configCacheKey(*Parsed), Base) << Json;
    } else {
      ++Keyed;
      EXPECT_NE(configCacheKey(*Parsed), Base) << Json;
    }
  };
  for (const JsonValue::Member &M : Doc->members()) {
    if (M.first == "schema_version")
      continue; // The document's version, not a field.
    if (M.second.isObject() && M.first != "op_latencies")
      for (const JsonValue::Member &Leaf : M.second.members())
        Check(M.first, Leaf);
    else
      Check("", M);
  }
  EXPECT_EQ(Unkeyed, 3u);
  EXPECT_GE(Keyed, 21u);
}

TEST(CacheKeyTest, ObsAndWeighterPoolAreKeyNeutral) {
  Function F = keyTestFunction();
  const std::string Base =
      experimentCacheKey(F, PipelineConfig::paperDefault());

  // Observing a compilation, parallelizing its weighting or setting the
  // no-effect closure knobs or closure-bit budget never changes the
  // result, so none may move the key (CompileCache.h contract).
  MetricRegistry Metrics;
  PipelineConfig Observed = PipelineConfig::paperDefault();
  Observed.Obs.Metrics = &Metrics;
  EXPECT_EQ(experimentCacheKey(F, Observed), Base);

  ThreadPool Pool(2);
  PipelineConfig Pooled = PipelineConfig::paperDefault();
  Pooled.WeighterPool = &Pool;
  EXPECT_EQ(experimentCacheKey(F, Pooled), Base);

  PipelineConfig Moded = PipelineConfig::paperDefault();
  Moded.Closure.Mode = ClosureMode::OnDemand;
  EXPECT_EQ(experimentCacheKey(F, Moded), Base);

  PipelineConfig Thresholded = PipelineConfig::paperDefault();
  Thresholded.Closure.OnDemandThreshold = 64;
  EXPECT_EQ(experimentCacheKey(F, Thresholded), Base);

  PipelineConfig ClosureBits = PipelineConfig::paperDefault();
  ClosureBits.Budget.MaxClosureBits = 2000;
  EXPECT_EQ(experimentCacheKey(F, ClosureBits), Base);
}

TEST(CacheKeyTest, FunctionContentIsInTheKey) {
  Function F = keyTestFunction();
  PipelineConfig Config = PipelineConfig::paperDefault();
  const std::string Base = experimentCacheKey(F, Config);

  ParseResult Other = parseIr(R"(
func @k {
block body freq 1 {
  %i0 = li 65
  ret
}
}
)");
  ASSERT_TRUE(Other.ok());
  EXPECT_NE(experimentCacheKey(Other.Functions.front(), Config), Base);
}

} // namespace
