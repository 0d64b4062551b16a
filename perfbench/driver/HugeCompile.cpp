//===- perfbench/driver/HugeCompile.cpp - The huge-compile workload -------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
//
// runPipeline(paperDefault()) called serially, as kernel_compiler and the
// daemon call it, on buildHugeFunction(4, 2048): the only workload where
// the on-demand closure (ClosureMode::Auto at n >= 2048) and superlinear
// weighting run, with four blocks so block-level parallelism can show.
// The family is fixed, so the seed only permutes the block order; the
// compile is block-local, so every order does the same work.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Oracle.h"
#include "Replay.h"
#include "Tracer.h"

#include "ir/IrPrinter.h"
#include "support/Rng.h"
#include "workload/HugeBlocks.h"

#include <algorithm>
#include <optional>

using namespace bsched;
using namespace perfbench;

namespace {

constexpr unsigned HugeBlocks = 4;
constexpr unsigned HugeBlockSize = 2048;

Function makeInput(uint64_t Seed) {
  Function F = buildHugeFunction(HugeBlocks, HugeBlockSize);
  std::deque<BasicBlock> &Blocks = F.blocks();
  Rng R(mixSeed(Seed, 3));
  for (size_t I = Blocks.size(); I > 1; --I)
    std::swap(Blocks[I - 1], Blocks[R.nextBounded(I)]);
  return F;
}

} // namespace

RunResult perfbench::runHugeCompile(const Options &Opts) {
  RunResult R;
  auto SetUp = [&] {
    const auto T0 = Clock::now();
    Function Fresh = makeInput(Opts.Seed);
    R.SetupS.push_back(secondsBetween(T0, Clock::now()));
    return Fresh;
  };
  Function F = SetUp();
  for (unsigned I = 1; I != SetupRepeats; ++I)
    (void)SetUp();
  R.InputDigest = fnv1a(printFunction(F));
  const PipelineConfig Config = PipelineConfig::paperDefault();
  const double Instrs = F.totalInstructions();

  // Untraced: every compile must print like the first, which is checked
  // with the oracle after the timed loop (and after the peak RSS reading,
  // which is the compile's own). A set-up follows each compile, so that
  // setup_s samples the host across the run as the compiles do.
  const double Budget = Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds;
  std::optional<CompiledFunction> First;
  std::string Reference;
  const auto Start = Clock::now();
  do {
    const auto T0 = Clock::now();
    ErrorOr<CompiledFunction> C = runPipeline(F, Config);
    const auto T1 = Clock::now();
    const double Ms = msBetween(T0, T1);
    ++R.Attempted;
    R.DoneS.push_back(secondsBetween(Start, T1));
    R.LatencyMs.push_back(Ms);
    R.RatePerS.push_back(1000.0 / Ms);
    if (!C) {
      R.fail(C.errors().front().formatted());
    } else if (std::string Printed = printFunction(C->Compiled); !First) {
      Reference = std::move(Printed);
      First = std::move(*C);
    } else if (Printed != Reference) {
      R.fail("compile differs from the first compile");
    }
    (void)SetUp();
  } while (secondsBetween(Start, Clock::now()) < Budget);
  R.PeakRssMib = peakRssMib();
  if (First) {
    std::string Bad = checkMemoryImages(F, First->Compiled);
    if (!Bad.empty())
      R.fail(Bad);
    R.CodeGrowth = First->StaticInstructions / Instrs;
    R.Info.push_back(
        {"spill_pct", 100.0 * First->StaticSpills / First->StaticInstructions,
         "%"});
  }
  R.Info.push_back({"input_instrs", Instrs, "instrs"});
  if (!Opts.Trace)
    return R;

  // Traced: the same compile replayed call by call; it must print exactly
  // what runPipeline printed. Each replay follows an untraced compile, the
  // base for the tracing overhead at the same moments of the host.
  startTracing(1u << 20);
  ReplayCounters Counters;
  const auto TraceStart = Clock::now();
  do {
    const auto T0 = Clock::now();
    ErrorOr<CompiledFunction> Base = runPipeline(F, Config);
    R.UntracedOpMs.push_back(msBetween(T0, Clock::now()));
    ++R.Attempted;
    if (!Base || printFunction(Base->Compiled) != Reference)
      R.fail("compile differs from the first compile");
    ErrorOr<CompiledFunction> C = [&] {
      Scope Op = opScope(F.totalInstructions());
      return replayPipeline(F, Config, Counters);
    }();
    ++R.Attempted;
    if (!C)
      R.fail("replay: " + C.errors().front().formatted());
    else if (printFunction(C->Compiled) != Reference)
      R.fail("replay differs from runPipeline");
  } while (secondsBetween(TraceStart, Clock::now()) < Opts.Seconds / 2);
  Counters.report(R);
  return R;
}
