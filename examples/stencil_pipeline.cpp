//===- examples/stencil_pipeline.cpp - Full pipeline on textual IR --------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// A domain example: a hand-written stencil kernel in the textual .bsir
// format is parsed, pushed through the complete compilation pipeline
// (schedule -> register allocation -> reschedule) under both policies,
// and evaluated across three memory systems with the paper's bootstrap
// statistics. Demonstrates: the parser, the pipeline API, and the
// experiment harness with confidence intervals.
//
// Run: build/examples/stencil_pipeline
//
//===----------------------------------------------------------------------===//

#include "ir/IrPrinter.h"
#include "parser/Parser.h"
#include "pipeline/Experiment.h"
#include "support/FailPoint.h"
#include "support/Table.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace bsched;

namespace {

// A 3-tap smoothing kernel over four manually unrolled iterations, written
// the way a RISC compiler emits it: a sliding window of loaded values and
// in-place pointer bumps.
const char *StencilSource = R"(
func @smooth3 {
block body freq 1000 {
  # Array cursors.
  %i0 = li 4096        # in[]
  %i1 = li 8192        # out[]
  # Initial window.
  %f0 = fload [%i0 + 0] !in
  %f1 = fload [%i0 + 8] !in
  %f2 = fload [%i0 + 16] !in
  %f9 = fli 0.25
  # Iteration 1.
  %f3 = fmul %f9, %f0
  %f4 = fmadd %f9, %f1, %f3
  %f5 = fmadd %f9, %f2, %f4
  fstore %f5, [%i1 + 0] !out
  %i0 = addi %i0, 8
  %i1 = addi %i1, 8
  %f0 = fload [%i0 + 16] !in
  # Iteration 2 (window rotated: f1 f2 f0).
  %f3 = fmul %f9, %f1
  %f4 = fmadd %f9, %f2, %f3
  %f5 = fmadd %f9, %f0, %f4
  fstore %f5, [%i1 + 0] !out
  %i0 = addi %i0, 8
  %i1 = addi %i1, 8
  %f1 = fload [%i0 + 16] !in
  # Iteration 3.
  %f3 = fmul %f9, %f2
  %f4 = fmadd %f9, %f0, %f3
  %f5 = fmadd %f9, %f1, %f4
  fstore %f5, [%i1 + 0] !out
  %i0 = addi %i0, 8
  %i1 = addi %i1, 8
  %f2 = fload [%i0 + 16] !in
  # Iteration 4.
  %f3 = fmul %f9, %f0
  %f4 = fmadd %f9, %f1, %f3
  %f5 = fmadd %f9, %f2, %f4
  fstore %f5, [%i1 + 0] !out
  ret
}
}
)";

} // namespace

namespace {

// Exit codes: 1 = bad BSCHED_FAILPOINTS, 2 = parse/verify failure,
// 4 = pipeline/simulation failure.
constexpr int ExitUsageError = 1;
constexpr int ExitParseError = 2;
constexpr int ExitPipelineError = 4;

void printDiagnostics(const std::vector<Diagnostic> &Diags,
                      std::string_view Filename) {
  for (const Diagnostic &D : Diags)
    std::fprintf(stderr, "%s\n", D.formatted(Filename).c_str());
}

} // namespace

int main() {
  // A malformed BSCHED_FAILPOINTS arms nothing; running anyway would pass
  // a chaos run off as one.
  if (std::string Error = FailPointRegistry::instance().envError();
      !Error.empty()) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return ExitUsageError;
  }

  ErrorOr<Function> F = parseSingleFunction(StencilSource);
  if (!F) {
    printDiagnostics(F.errors(), "<stencil>");
    return ExitParseError;
  }
  std::printf("Parsed kernel:\n%s\n", printFunction(*F).c_str());

  struct SystemSpec {
    std::unique_ptr<MemorySystem> Memory;
    double OptLat;
  };
  std::vector<SystemSpec> Systems;
  Systems.push_back({std::make_unique<CacheSystem>(0.8, 2, 10), 2});
  Systems.push_back({std::make_unique<NetworkSystem>(3, 5), 3});
  Systems.push_back({std::make_unique<MixedSystem>(0.8, 2, 30, 5), 2});

  SimulationConfig Sim;
  Sim.Processor = ProcessorModel::unlimited();

  Table T("Balanced vs traditional on the smooth3 kernel");
  T.setHeader({"System", "Trad cycles", "Bal cycles", "Imp%", "95% CI"});
  for (SystemSpec &S : Systems) {
    ErrorOr<SchedulerComparison> CmpOr =
        runComparison(*F, *S.Memory, S.OptLat, Sim);
    if (!CmpOr) {
      printDiagnostics(CmpOr.errors(), "<stencil>");
      return ExitPipelineError;
    }
    const SchedulerComparison &Cmp = *CmpOr;
    T.addRow({S.Memory->name(),
              formatDouble(Cmp.TraditionalSim.MeanRuntime, 0),
              formatDouble(Cmp.CandidateSim.MeanRuntime, 0),
              formatPercent(Cmp.Improvement.MeanPercent),
              "[" + formatPercent(Cmp.Improvement.Ci95.Lo) + ", " +
                  formatPercent(Cmp.Improvement.Ci95.Hi) + "]"});
  }
  T.print(stdout);
  std::printf("\nThe confidence intervals come from the paper's "
              "methodology: 30 simulated\nexecutions per block, 100 "
              "bootstrap sample means, paired differences.\n");
  return 0;
}
