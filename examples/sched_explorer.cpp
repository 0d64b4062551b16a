//===- examples/sched_explorer.cpp - CLI scheduling explorer --------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// A command-line tool that reads a .bsir file and shows what each policy
// does to it: dependence DAG statistics, per-load weights under every
// weighter, the resulting schedules, and (optionally) Graphviz DOT output
// of the code DAG.
//
// Usage:
//   sched_explorer <file.bsir> [--dot] [--latency N] [--policy <name>]
//                  [--json]
//   sched_explorer --demo          (runs on a built-in example)
//
// --json replaces the human tables with one machine-readable JSON
// document on stdout (per block: DAG stats, per-load weights per policy,
// the schedules), for diffing explorations across PRs.
//
//===----------------------------------------------------------------------===//

#include "dag/DagBuilder.h"
#include "dag/DagUtils.h"
#include "ir/IrPrinter.h"
#include "obs/Log.h"
#include "parser/Parser.h"
#include "pipeline/Pipeline.h"
#include "sched/AverageWeighter.h"
#include "sched/BalancedWeighter.h"
#include "sched/ListScheduler.h"
#include "sched/TraditionalWeighter.h"
#include "support/CliOptions.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

using namespace bsched;

namespace {

const char *DemoSource = R"(
func @demo {
block body freq 1 {
  %i0 = li 4096
  %f0 = fload [%i0 + 0] !a
  %f1 = fload [%i0 + 8] !a
  %f2 = fadd %f0, %f1
  %i0 = addi %i0, 16
  %f3 = fload [%i0 + 0] !a
  %f4 = fmadd %f2, %f3, %f2
  fstore %f4, [%i0 + 8] !b
  ret
}
}
)";

struct PolicySpec {
  const char *Name;
  std::unique_ptr<Weighter> W;
};

/// The four weighters the explorer compares, optionally restricted to
/// one by --policy (spellings shared with parsePolicyName).
std::vector<PolicySpec> makePolicies(double TraditionalLatency,
                                     std::optional<SchedulerPolicy> Only) {
  std::vector<PolicySpec> Policies;
  Policies.push_back(
      {"traditional",
       std::make_unique<TraditionalWeighter>(TraditionalLatency)});
  Policies.push_back({"balanced", std::make_unique<BalancedWeighter>()});
  Policies.push_back(
      {"balanced-uf",
       std::make_unique<BalancedWeighter>(LatencyModel(),
                                          ChancesMethod::UnionFindLevels)});
  Policies.push_back({"average-llp", std::make_unique<AverageWeighter>()});
  if (Only)
    std::erase_if(Policies, [&](const PolicySpec &P) {
      return policyName(*Only) != P.Name;
    });
  return Policies;
}

/// One block of the --json document: DAG stats, per-load weights per
/// policy, and the schedules.
void exploreBlockJson(JsonWriter &W, const BasicBlock &BB,
                      double TraditionalLatency,
                      std::optional<SchedulerPolicy> Only) {
  std::vector<PolicySpec> Policies = makePolicies(TraditionalLatency, Only);
  DepDag Dag = buildDag(BB);

  W.beginObject();
  W.key("name").value(BB.name());
  W.key("frequency").value(BB.frequency());
  W.key("instructions").value(BB.size());
  W.key("dag").beginObject();
  W.key("nodes").value(Dag.size());
  W.key("edges").value(Dag.numEdges());
  W.key("loads").value(Dag.loadNodes().size());
  W.key("critical_path").value(criticalPathLength(Dag));
  W.endObject();

  W.key("policies").beginArray();
  for (const PolicySpec &P : Policies) {
    DepDag Tmp = buildDag(BB);
    P.W->assignWeights(Tmp);
    Schedule Sched = scheduleDag(Tmp);

    W.beginObject();
    W.key("policy").value(P.Name);
    W.key("virtual_nops").value(Sched.NumVirtualNops);
    W.key("load_weights").beginArray();
    for (unsigned I = 0; I != Tmp.size(); ++I) {
      if (!Tmp.isLoad(I))
        continue;
      W.beginObject();
      W.key("node").value(I);
      W.key("instruction").value(Tmp.instruction(I).str());
      W.key("weight").value(Tmp.weight(I));
      W.endObject();
    }
    W.endArray();
    W.key("schedule").beginArray();
    BasicBlock Copy = BB;
    applySchedule(Copy, Tmp, Sched);
    for (const Instruction &I : Copy)
      W.value(I.str());
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

void exploreBlock(const Function &F, const BasicBlock &BB,
                  double TraditionalLatency, bool EmitDot,
                  std::optional<SchedulerPolicy> Only) {
  std::printf("== block '%s' (freq %g, %u instructions) ==\n",
              BB.name().c_str(), BB.frequency(), BB.size());

  DepDag Dag = buildDag(BB);
  std::printf("code DAG: %u nodes, %u edges, %zu loads, critical path "
              "%.1f (unit weights)\n",
              Dag.size(), Dag.numEdges(), Dag.loadNodes().size(),
              criticalPathLength(Dag));

  std::vector<PolicySpec> Policies = makePolicies(TraditionalLatency, Only);
  if (Policies.empty()) {
    std::printf("(no weighter to explore for policy '%s')\n\n",
                policyName(*Only).c_str());
    return;
  }

  // Per-load weights under each policy.
  std::printf("\n%-6s %-30s", "node", "load");
  for (const PolicySpec &P : Policies)
    std::printf(" %12s", P.Name);
  std::printf("\n");
  std::vector<std::vector<double>> Weights;
  for (const PolicySpec &P : Policies) {
    DepDag Tmp = buildDag(BB);
    P.W->assignWeights(Tmp);
    std::vector<double> Row;
    for (unsigned I = 0; I != Tmp.size(); ++I)
      Row.push_back(Tmp.weight(I));
    Weights.push_back(std::move(Row));
  }
  for (unsigned I = 0; I != Dag.size(); ++I) {
    if (!Dag.isLoad(I))
      continue;
    std::printf("%-6u %-30s", I, Dag.instruction(I).str().c_str());
    for (const std::vector<double> &Row : Weights)
      std::printf(" %12.2f", Row[I]);
    std::printf("\n");
  }

  // Schedules.
  for (const PolicySpec &P : Policies) {
    DepDag Tmp = buildDag(BB);
    P.W->assignWeights(Tmp);
    Schedule Sched = scheduleDag(Tmp);
    std::printf("\n%s schedule (%u virtual no-ops absorbed):\n", P.Name,
                Sched.NumVirtualNops);
    BasicBlock Copy = BB;
    applySchedule(Copy, Tmp, Sched);
    for (const Instruction &I : Copy)
      std::printf("  %s\n", I.str().c_str());
  }

  if (EmitDot) {
    std::printf("\nGraphviz DOT of the code DAG:\n%s",
                Dag.toDot(F.name() + "." + BB.name()).c_str());
  }
  std::printf("\n");
}

} // namespace

int main(int argc, char **argv) {
  std::string Source;
  bool EmitDot = false;
  bool JsonMode = false;
  double TraditionalLatency = 2.0;
  std::optional<SchedulerPolicy> Only;
  ResourceBudget Budget;
  const char *Path = nullptr;

  // Common flags (--policy, --json, --deadline-ms, --max-instrs) come
  // from the shared parser; --demo/--dot/--latency and the positional
  // path stay local.
  CliOptionParser Cli(CliOptionParser::WantPolicy | CliOptionParser::WantJson |
                      CliOptionParser::WantBudget | CliOptionParser::WantLog);
  Logger &Log = Logger::global();
  for (int I = 1; I < argc; ++I) {
    CliOptionParser::Match M = Cli.tryParse(argc, argv, I);
    if (M == CliOptionParser::Match::Consumed)
      continue;
    if (M == CliOptionParser::Match::Error) {
      Log.console(LogLevel::Error, "sched_explorer", Cli.error());
      return 2;
    }
    if (std::strcmp(argv[I], "--demo") == 0)
      Source = DemoSource;
    else if (std::strcmp(argv[I], "--dot") == 0)
      EmitDot = true;
    else if (std::strcmp(argv[I], "--latency") == 0) {
      // The range the pipeline accepts for a traditional load weight
      // (BS500): positive, finite, at most 1024 cycles.
      const char *Text = I + 1 < argc ? argv[++I] : "";
      double Value = 0.0;
      if (!parseNonNegative(Text, Value) || Value <= 0.0 || Value > 1024.0) {
        Log.console(LogLevel::Error, "sched_explorer",
                    "error: bad --latency value '" + std::string(Text) +
                        "': want a number of cycles in (0, 1024]");
        return 2;
      }
      TraditionalLatency = Value;
    } else
      Path = argv[I];
  }
  JsonMode = Cli.options().Json;
  Budget = Cli.options().Budget;
  std::string LogError;
  if (!configureGlobalLogger(Cli.options().LogLevelText,
                             Cli.options().LogFile, &LogError)) {
    Log.console(LogLevel::Error, "sched_explorer", "error: " + LogError);
    return 2;
  }
  if (Cli.options().HasPolicy) {
    ErrorOr<SchedulerPolicy> Parsed =
        parsePolicyName(Cli.options().PolicyText);
    if (!Parsed) {
      Log.console(LogLevel::Error, "sched_explorer", Parsed.errorText());
      return 2;
    }
    Only = *Parsed;
  }
  if (argc <= 1)
    Source = DemoSource; // No arguments: run the built-in example.

  if (Source.empty()) {
    if (!Path) {
      Log.console(LogLevel::Error, "sched_explorer",
                  "usage: " + std::string(argv[0]) +
                      " <file.bsir> [--dot] [--latency N] "
                      "[--policy <name>] [--json] | --demo");
      return 2;
    }
    std::ifstream In(Path);
    if (!In) {
      Log.console(LogLevel::Error, "sched_explorer",
                  "error: cannot open '" + std::string(Path) + "'");
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
  }

  // When a budget is set the parse runs governed: oversized blocks (and
  // blown deadlines) surface as structured BS80x diagnostics, reported
  // with a dedicated exit code so scripts can tell "too big for the
  // budget" (5) apart from "malformed input" (2/3).
  std::optional<ResourceGovernor> Gov;
  if (Budget.active())
    Gov.emplace(Budget);
  ParseResult Result = parseIr(Source, Gov ? &*Gov : nullptr);
  if (!Result.ok()) {
    // Exit codes: 2 = lexical/syntactic failure, 3 = the text parsed but
    // the IR failed verification, 5 = resource budget exceeded.
    bool VerifyFailure = false;
    bool BudgetFailure = false;
    std::string_view Filename = Path ? Path : "<demo>";
    for (const ParseDiag &D : Result.Diags) {
      Log.console(LogLevel::Error, "sched_explorer", D.formatted(Filename),
                  {{"code", diagCodeString(D.Code)}});
      if (D.isError() && isBudgetDiagCode(D.Code))
        BudgetFailure = true;
      if (D.isError() && D.Code >= DiagCode::VerifyTerminatorNotLast &&
          D.Code < DiagCode::FrontendSyntax)
        VerifyFailure = true;
    }
    if (BudgetFailure)
      return 5;
    return VerifyFailure ? 3 : 2;
  }

  if (JsonMode) {
    JsonWriter W;
    W.beginObject();
    W.key("traditional_latency").value(TraditionalLatency);
    W.key("functions").beginArray();
    for (const Function &F : Result.Functions) {
      W.beginObject();
      W.key("name").value(F.name());
      W.key("blocks").beginArray();
      for (const BasicBlock &BB : F)
        exploreBlockJson(W, BB, TraditionalLatency, Only);
      W.endArray();
      W.endObject();
    }
    W.endArray();
    W.endObject();
    std::printf("%s\n", W.str().c_str());
    return 0;
  }

  for (const Function &F : Result.Functions) {
    std::printf("function @%s\n", F.name().c_str());
    for (const BasicBlock &BB : F)
      exploreBlock(F, BB, TraditionalLatency, EmitDot, Only);
  }
  return 0;
}
