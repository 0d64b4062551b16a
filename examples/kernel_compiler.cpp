//===- examples/kernel_compiler.cpp - Source-to-simulation pipeline -------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// The complete stack in one program: a Fortran-ish source program is
// compiled by the kernel-language frontend (the stand-in for the paper's
// Fortran -> f2c -> GCC front half), pushed through the two-pass
// scheduling pipeline under both policies, and evaluated on uncertain-
// latency memory systems — source code in, Table-2-style numbers out.
//
// Run: build/examples/kernel_compiler [--candidate <policy>] [--json]
//                                     [--trace-out=FILE]
//
// --json replaces the human tables with one machine-readable JSON document
// on stdout (per system: runtimes, improvement, CI; plus the merged metric
// snapshot). --trace-out writes a Chrome trace-event file of the pipeline
// phases (parse/dag/sched/regalloc/certify/sim), loadable in Perfetto.
//
//===----------------------------------------------------------------------===//

#include "frontend/KernelLang.h"
#include "ir/IrPrinter.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pipeline/Experiment.h"
#include "support/CliOptions.h"
#include "support/FailPoint.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace bsched;

namespace {

// A miniature scientific program: a smoothing pass, a dot-product
// reduction, and a damped update — the block shapes the Perfect Club is
// made of.
const char *Source = R"(
kernel smooth(u, v) freq 2000 {
  for i = 0 to 32 unroll 4 {
    v[i] = 0.25*u[i-1] + 0.5*u[i] + 0.25*u[i+1];
  }
}

kernel dot(x, y) freq 1200 {
  s = 0.0;
  for i = 0 to 24 unroll 6 {
    s = s + x[i] * y[i];
  }
  result[0] = s;
}

kernel relax(w, r) freq 800 {
  omega = 1.8;
  for i = 0 to 16 unroll 4 {
    w[i] = w[i] + omega * (r[i] - w[i]);
  }
}
)";

} // namespace

namespace {

// Exit codes: 1 = bad command line or BSCHED_FAILPOINTS, 2 = frontend
// (parse/semantic) failure, 4 = pipeline or simulation failure, 5 = a
// resource budget was exceeded (structured BS80x diagnostic from the
// governor).
constexpr int ExitUsageError = 1;
constexpr int ExitFrontendError = 2;
constexpr int ExitPipelineError = 4;
constexpr int ExitBudgetExceeded = 5;

/// True when any error in \p Diags is a governor budget overrun; those
/// exit with ExitBudgetExceeded so scripts can tell "too big for the
/// budget" apart from "miscompiled".
bool anyBudgetError(const std::vector<Diagnostic> &Diags) {
  for (const Diagnostic &D : Diags)
    if (isBudgetDiagCode(D.Code))
      return true;
  return false;
}

} // namespace

int main(int argc, char **argv) {
  // All flags here are the shared set (support/CliOptions.h);
  // --candidate picks the scheduler compared against traditional.
  CliOptionParser Cli(CliOptionParser::WantCandidate |
                      CliOptionParser::WantJson | CliOptionParser::WantTrace |
                      CliOptionParser::WantBudget |
                      CliOptionParser::WantConfig | CliOptionParser::WantLog);
  Logger &Log = Logger::global();
  for (int I = 1; I < argc; ++I) {
    CliOptionParser::Match M = Cli.tryParse(argc, argv, I);
    if (M == CliOptionParser::Match::Consumed)
      continue;
    if (M == CliOptionParser::Match::Error) {
      Log.console(LogLevel::Error, "kernel_compiler", Cli.error());
      return ExitUsageError;
    }
    Log.console(LogLevel::Error, "kernel_compiler",
                "usage: " + std::string(argv[0]) + " " + Cli.usageFragment());
    return ExitUsageError;
  }
  std::string LogError;
  if (!configureGlobalLogger(Cli.options().LogLevelText,
                             Cli.options().LogFile, &LogError)) {
    Log.console(LogLevel::Error, "kernel_compiler", "error: " + LogError);
    return ExitUsageError;
  }
  // A malformed BSCHED_FAILPOINTS arms nothing; running anyway would pass
  // a chaos run off as one.
  if (std::string Error = FailPointRegistry::instance().envError();
      !Error.empty()) {
    Log.console(LogLevel::Error, "kernel_compiler", "error: " + Error);
    return ExitUsageError;
  }

  SchedulerPolicy Candidate = SchedulerPolicy::Balanced;
  if (Cli.options().HasPolicy) {
    ErrorOr<SchedulerPolicy> Parsed =
        parsePolicyName(Cli.options().PolicyText);
    if (!Parsed) {
      Log.console(LogLevel::Error, "kernel_compiler", Parsed.errorText());
      return ExitUsageError;
    }
    Candidate = *Parsed;
  }
  const bool JsonMode = Cli.options().Json;
  const std::string &TraceOut = Cli.options().TraceOut;

  // --config FILE seeds the pipeline from a schema-v1 JSON document;
  // budget flags given on the command line override its budget fields.
  PipelineConfig Base;
  if (!Cli.options().ConfigFile.empty()) {
    std::ifstream In(Cli.options().ConfigFile);
    if (!In) {
      Log.console(LogLevel::Error, "kernel_compiler",
                  "error: cannot open '" + Cli.options().ConfigFile + "'");
      return ExitUsageError;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    ErrorOr<PipelineConfig> Parsed = PipelineConfig::fromJson(Buf.str());
    if (!Parsed) {
      for (const Diagnostic &D : Parsed.errors())
        Log.console(LogLevel::Error, "kernel_compiler",
                    D.formatted(Cli.options().ConfigFile),
                    {{"code", diagCodeString(D.Code)}});
      return ExitUsageError;
    }
    Base = *Parsed;
  }
  ResourceBudget Budget = Base.Budget;
  if (Cli.options().Budget.DeadlineMs > 0.0)
    Budget.DeadlineMs = Cli.options().Budget.DeadlineMs;
  if (Cli.options().Budget.MaxInstructionsPerBlock != 0)
    Budget.MaxInstructionsPerBlock =
        Cli.options().Budget.MaxInstructionsPerBlock;

  // One registry and one trace for the whole run; both are merged/written
  // at the end.
  MetricRegistry Metrics;
  TraceRecorder Trace;

  KernelLangResult Compiled = [&] {
    ScopedSpan Parse(&Trace, "parse", "pipeline",
                     "{\"source\":\"<kernel-lang>\"}");
    return compileKernelLang(Source);
  }();
  if (!Compiled.ok()) {
    for (const Diagnostic &D : Compiled.Diags)
      Log.console(LogLevel::Error, "kernel_compiler",
                  D.formatted("<kernel-lang>"),
                  {{"code", diagCodeString(D.Code)}});
    return ExitFrontendError;
  }

  const Function &Program = *Compiled.Program;
  if (!JsonMode) {
    std::printf("Compiled %u kernels, %u instructions, %u arrays.\n\n",
                Program.numBlocks(), Program.totalInstructions(),
                static_cast<unsigned>(Compiled.Arrays.size()));
    std::printf("Lowered IR of kernel 'dot':\n%s\n",
                printBlock(Program.block(1)).c_str());
  }

  struct SystemSpec {
    std::unique_ptr<MemorySystem> Memory;
    double OptLat;
  };
  std::vector<SystemSpec> Systems;
  Systems.push_back({std::make_unique<CacheSystem>(0.8, 2, 10), 2});
  Systems.push_back({std::make_unique<NetworkSystem>(2, 5), 2});
  Systems.push_back({std::make_unique<NetworkSystem>(3, 5), 3});
  Systems.push_back({std::make_unique<MixedSystem>(0.8, 2, 30, 5), 2});

  SimulationConfig Sim;
  Sim.Obs = {&Metrics, &Trace, {}};
  Base.Obs = {&Metrics, &Trace, {}};
  Base.Budget = Budget;

  JsonWriter W;
  if (JsonMode) {
    W.beginObject();
    W.key("candidate").value(policyName(Candidate));
    W.key("kernels").value(Program.numBlocks());
    W.key("instructions").value(Program.totalInstructions());
    W.key("arrays").value(Compiled.Arrays.size());
    W.key("systems").beginArray();
  }

  Table T(policyName(Candidate) + " vs traditional on the compiled program");
  T.setHeader({"System", "Trad runtime", "Cand runtime", "Imp%", "95% CI"});
  for (SystemSpec &S : Systems) {
    ErrorOr<SchedulerComparison> CmpOr =
        runComparison(Program, *S.Memory, S.OptLat, Sim, Candidate, Base);
    if (!CmpOr) {
      for (const Diagnostic &D : CmpOr.errors())
        Log.console(LogLevel::Error, "kernel_compiler",
                    D.formatted("<kernel-lang>"),
                    {{"code", diagCodeString(D.Code)}});
      return anyBudgetError(CmpOr.errors()) ? ExitBudgetExceeded
                                            : ExitPipelineError;
    }
    const SchedulerComparison &Cmp = *CmpOr;
    if (JsonMode) {
      W.beginObject();
      W.key("system").value(S.Memory->name());
      W.key("traditional_runtime").value(Cmp.TraditionalSim.MeanRuntime);
      W.key("candidate_runtime").value(Cmp.CandidateSim.MeanRuntime);
      W.key("improvement_percent").value(Cmp.Improvement.MeanPercent);
      W.key("ci95").beginObject();
      W.key("lo").value(Cmp.Improvement.Ci95.Lo);
      W.key("hi").value(Cmp.Improvement.Ci95.Hi);
      W.endObject();
      W.endObject();
    } else {
      T.addRow({S.Memory->name(),
                formatDouble(Cmp.TraditionalSim.MeanRuntime / 1000.0, 1) + "k",
                formatDouble(Cmp.CandidateSim.MeanRuntime / 1000.0, 1) + "k",
                formatPercent(Cmp.Improvement.MeanPercent),
                "[" + formatPercent(Cmp.Improvement.Ci95.Lo) + ", " +
                    formatPercent(Cmp.Improvement.Ci95.Hi) + "]"});
    }
  }

  if (!TraceOut.empty()) {
    std::string Error;
    if (!Trace.writeFile(TraceOut, &Error)) {
      Log.console(LogLevel::Error, "kernel_compiler", "error: " + Error);
      return ExitUsageError;
    }
  }

  if (JsonMode) {
    W.endArray();
    W.key("metrics").rawValue(Metrics.snapshot().toJson());
    W.endObject();
    std::printf("%s\n", W.str().c_str());
    return 0;
  }

  T.print(stdout);
  std::printf("\nEverything above — parsing, lowering with load reuse, "
              "dependence\nanalysis, weights, scheduling, register "
              "allocation, simulation and\nbootstrap statistics — runs "
              "from the single source string at the top.\n");
  return 0;
}
