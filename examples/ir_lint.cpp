//===- examples/ir_lint.cpp - IR lint + certification CLI -----------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// A command-line front end for the analysis layer: reads a .bsir file,
// runs the dataflow and memory lints (use-before-def, dead values,
// redundant loads, store-to-load forwarding, dead stores)
// on every function, and optionally compiles each function with the
// certifying pipeline so every schedule and allocation is proved correct.
//
// Usage:
//   ir_lint <file.bsir> [--certify] [--no-use-before-def]
//           [--no-dead-value] [--no-redundant-load]
//           [--no-store-forward] [--no-dead-store]
//           [--deadline-ms N] [--max-instrs N]
//   ir_lint --demo        (runs on a built-in example with findings)
//
// Exit codes: 0 = clean, 1 = lint findings, 2 = bad command line,
// malformed BSCHED_FAILPOINTS or syntax error, 3 = IR verification
// failure, 4 = pipeline certification failure, 5 = resource budget
// exceeded (structured BS80x diagnostic).
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "obs/Log.h"
#include "parser/Parser.h"
#include "pipeline/Pipeline.h"
#include "support/CliOptions.h"
#include "support/FailPoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

using namespace bsched;

namespace {

// Deliberately suspicious code: %i0 is read but never defined (BS700),
// %f3 is computed and never used (BS701), the second fload rereads the
// location the first one just loaded (BS702), the load through %i2 reads
// the word stored through %i1 — provable only by folding both bases to
// the constant 4104 (BS703) — and the first store to [%i1 + 16] is
// overwritten before any read (BS704).
const char *DemoSource = R"(
func @demo {
block body freq 1 {
  %f0 = fload [%i0 + 0] !a
  %f1 = fload [%i0 + 0] !a
  %f2 = fadd %f0, %f1
  %f3 = fmul %f2, %f0
  fstore %f2, [%i0 + 8] !a
  %i1 = li 4096
  store %i0, [%i1 + 8] !b
  %i2 = li 4104
  %i3 = load [%i2 + 0] !b
  store %i3, [%i1 + 16] !b
  store %i3, [%i1 + 16] !b
  ret
}
}
)";

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <file.bsir> [--certify] [--no-use-before-def] "
               "[--no-dead-value] [--no-redundant-load] "
               "[--no-store-forward] [--no-dead-store] "
               "[--deadline-ms N] [--max-instrs N] | --demo\n",
               Argv0);
}

} // namespace

int main(int argc, char **argv) {
  std::string Source;
  const char *Path = nullptr;
  bool Certify = false;
  LintOptions Options;

  // The budget flags are the shared set (support/CliOptions.h); the
  // lint-selection flags stay local.
  CliOptionParser Cli(CliOptionParser::WantBudget |
                      CliOptionParser::WantLog);
  Logger &Log = Logger::global();
  for (int I = 1; I < argc; ++I) {
    CliOptionParser::Match M = Cli.tryParse(argc, argv, I);
    if (M == CliOptionParser::Match::Consumed)
      continue;
    if (M == CliOptionParser::Match::Error) {
      Log.console(LogLevel::Error, "ir_lint", Cli.error());
      return 2;
    }
    if (std::strcmp(argv[I], "--demo") == 0)
      Source = DemoSource;
    else if (std::strcmp(argv[I], "--certify") == 0)
      Certify = true;
    else if (std::strcmp(argv[I], "--no-use-before-def") == 0)
      Options.WarnUseBeforeDef = false;
    else if (std::strcmp(argv[I], "--no-dead-value") == 0)
      Options.WarnDeadValue = false;
    else if (std::strcmp(argv[I], "--no-redundant-load") == 0)
      Options.WarnRedundantLoad = false;
    else if (std::strcmp(argv[I], "--no-store-forward") == 0)
      Options.WarnStoreForward = false;
    else if (std::strcmp(argv[I], "--no-dead-store") == 0)
      Options.WarnDeadStore = false;
    else if (argv[I][0] == '-') {
      usage(argv[0]);
      return 2;
    } else
      Path = argv[I];
  }
  const ResourceBudget &Budget = Cli.options().Budget;
  std::string LogError;
  if (!configureGlobalLogger(Cli.options().LogLevelText,
                             Cli.options().LogFile, &LogError)) {
    Log.console(LogLevel::Error, "ir_lint", "error: " + LogError);
    return 2;
  }
  // A malformed BSCHED_FAILPOINTS arms nothing; running anyway would pass
  // a chaos run off as one.
  if (std::string Error = FailPointRegistry::instance().envError();
      !Error.empty()) {
    Log.console(LogLevel::Error, "ir_lint", "error: " + Error);
    return 2;
  }
  if (argc <= 1)
    Source = DemoSource; // No arguments: run the built-in example.

  if (Source.empty()) {
    if (!Path) {
      usage(argv[0]);
      return 2;
    }
    std::ifstream In(Path);
    if (!In) {
      Log.console(LogLevel::Error, "ir_lint",
                  "error: cannot open '" + std::string(Path) + "'");
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
  }

  std::string_view Filename = Path ? Path : "<demo>";
  // With a budget the parse runs governed, so oversized inputs surface
  // as structured BS80x diagnostics with their own exit code (5) — the
  // same convention as sched_explorer and kernel_compiler.
  std::optional<ResourceGovernor> Gov;
  if (Budget.active())
    Gov.emplace(Budget);
  ParseResult Result = parseIr(Source, Gov ? &*Gov : nullptr);
  if (!Result.ok()) {
    // Exit codes: 2 = lexical/syntactic failure, 3 = the text parsed but
    // the IR failed verification (same convention as sched_explorer).
    bool VerifyFailure = false;
    bool BudgetFailure = false;
    for (const ParseDiag &D : Result.Diags) {
      Log.console(LogLevel::Error, "ir_lint", D.formatted(Filename),
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

  unsigned Findings = 0;
  bool CertificationFailed = false;
  bool CertificationBudget = false;
  PipelineConfig CertifyConfig = PipelineConfig::paperDefault();
  CertifyConfig.Budget = Budget;
  for (const Function &F : Result.Functions) {
    std::vector<Diagnostic> Diags = lintFunction(F, Options);
    for (const Diagnostic &D : Diags)
      std::printf("%s: @%s: %s\n", std::string(Filename).c_str(),
                  F.name().c_str(), D.formatted().c_str());
    Findings += static_cast<unsigned>(Diags.size());

    if (Certify) {
      ErrorOr<CompiledFunction> Compiled = runPipeline(F, CertifyConfig);
      if (!Compiled.has_value()) {
        CertificationFailed = true;
        for (const Diagnostic &D : Compiled.errors()) {
          Log.console(LogLevel::Error, "ir_lint",
                      std::string(Filename) + ": @" + F.name() + ": " +
                          D.formatted(),
                      {{"code", diagCodeString(D.Code)}});
          if (D.isError() && isBudgetDiagCode(D.Code))
            CertificationBudget = true;
        }
      } else {
        std::printf("%s: @%s: certified (%u instructions, %u spills, every "
                    "schedule and allocation proved)\n",
                    std::string(Filename).c_str(), F.name().c_str(),
                    Compiled->StaticInstructions, Compiled->StaticSpills);
      }
    }
  }

  if (CertificationBudget)
    return 5;
  if (CertificationFailed)
    return 4;
  if (Findings != 0) {
    std::printf("%u finding(s)\n", Findings);
    return 1;
  }
  std::printf("clean\n");
  return 0;
}
