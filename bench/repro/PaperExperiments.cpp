//===- bench/repro/PaperExperiments.cpp - The paper's experiments ---------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "bench/repro/PaperExperiments.h"

#include "bench/BenchCommon.h"
#include "ir/IrPrinter.h"
#include "sched/BalancedWeighter.h"
#include "sched/ListScheduler.h"
#include "sched/TraditionalWeighter.h"
#include "sim/Simulator.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "tests/TestDagHelpers.h"

#include <cmath>
#include <cstdarg>
#include <iterator>
#include <map>
#include <set>
#include <span>

using namespace bsched;
using namespace bsched::bench;
using namespace bsched::repro;
using bsched::fixtures::Figure7;

void Report::say(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  if (Out)
    std::vfprintf(Out, Fmt, Args);
  va_end(Args);
}

int repro::benchMain(Experiment Run) {
  Report R{stdout, {}, true};
  Run(R);
  return R.ClaimsHold ? 0 : 1;
}

namespace {

/// Figure 2's schedules of the Figure 1 DAG, as the paper draws them.
const struct {
  const char *Label, *Order;
} Figure2[] = {{"(a) traditional W=5 (greedy):", "L0 X0 X1 X2 X3 L1 X4"},
               {"(b) traditional W=1 (lazy):", "L0 L1 X0 X1 X2 X3 X4"},
               {"(c) balanced W=3:", "L0 X0 X1 L1 X2 X3 X4"}};

/// Interlock cycles of the Figure 1 program issued in \p Order, every load
/// taking \p Latency cycles. L0 loads through a live-in pointer, L1 chases
/// L0's result, X4 consumes L1; X0..X3 are independent one-cycle fillers.
uint64_t interlocks(std::string_view Order, unsigned Latency) {
  auto Vi = [](unsigned Id) { return Reg::makeVirtual(RegClass::Int, Id); };
  BasicBlock BB("fig1");
  for (std::string_view Name : split(Order, ' '))
    if (Name == "L0")
      BB.append(Instruction::makeLoad(Opcode::Load, Vi(1), Vi(0), 0, 0));
    else if (Name == "L1")
      BB.append(Instruction::makeLoad(Opcode::Load, Vi(2), Vi(1), 0, 0));
    else if (Name == "X4")
      BB.append(Instruction::makeBinaryImm(Opcode::AddI, Vi(3), Vi(2), 1));
    else
      BB.append(Instruction::makeLoadImm(Vi(10 + (Name[1] - '0')), 7));
  Rng R(1);
  return simulateBlock(BB, ProcessorModel::unlimited(), FixedSystem(Latency),
                       R)
      .InterlockCycles;
}

/// Our list scheduler's order for the Figure 1 DAG, as node names, under
/// balanced weights or the traditional weight \p W; added to \p R.
std::string scheduleFigure1(Report &R, bool Balanced, double W) {
  static const char *Names[] = {"L0", "L1", "X0", "X1", "X2", "X3", "X4"};
  DepDag Dag = fixtures::makeFigure1Dag();
  if (Balanced)
    BalancedWeighter().assignWeights(Dag);
  else
    TraditionalWeighter(W).assignWeights(Dag);
  std::string Out;
  for (unsigned Node : scheduleDag(Dag).Order)
    Out += (Out.empty() ? "" : " ") + std::string(Names[Node]);
  R.addText(Out);
  return Out;
}

/// Tables 3 and 5's processor models, in column order.
const ProcessorModel Processors[] = {ProcessorModel::unlimited(),
                                     ProcessorModel::maxOutstanding(8),
                                     ProcessorModel::maxLength(8)};

/// Balanced against traditional at \p OptLat, simulated on \p P.
ExperimentCell cell(std::string Label, const Function &F,
                    const MemorySystem &Memory, double OptLat,
                    const ProcessorModel &P) {
  return {std::move(Label), &F, &Memory, OptLat, SchedulerPolicy::Balanced,
          PipelineConfig::paperDefault(), paperSimulation(P)};
}

void addCompiled(Report &R, const CompiledFunction &C) {
  R.addText(printFunction(C.Compiled));
  for (unsigned Spills : C.SpillPerBlock)
    R.add(Spills);
  R.add(C.DynamicInstructions);
  R.add(C.DynamicSpills);
}

/// Runs \p Cells on a fresh engine (its accounting line goes to R.Out)
/// and adds every cell's results to R.
EngineResult runCells(Report &R, const std::vector<ExperimentCell> &Cells,
                      ObsContext Obs = {}) {
  EngineResult Run = runEngineMatrix(Cells, Obs, R.Out);
  for (const CellOutcome &Cell : Run.Cells) {
    R.addText(Cell.Label);
    R.addText(Cell.firstError());
    if (!Cell.ok())
      continue;
    const SchedulerComparison &C = *Cell.Comparison;
    addCompiled(R, C.TraditionalCompiled);
    addCompiled(R, C.CandidateCompiled);
    for (const ProgramSimResult *S : {&C.TraditionalSim, &C.CandidateSim}) {
      for (double V : S->BootstrapRuntimes)
        R.add(V);
      R.add(S->MeanRuntime);
      R.add(S->DynamicInstructions);
      R.add(S->MeanInterlockCycles);
    }
    R.add(C.Improvement.MeanPercent);
    R.add(C.Improvement.Ci95.Lo);
    R.add(C.Improvement.Ci95.Hi);
  }
  return Run;
}

/// Adds a row per (system, optimistic latency) to \p T under the paper's
/// group labels; \p Rest appends the cells after System and OptLat.
template <typename RestFn>
void addSystemRows(Table &T, const std::vector<SystemRow> &Systems,
                   RestFn Rest) {
  const char *LastGroup = nullptr;
  for (const SystemRow &Row : Systems) {
    if (LastGroup != Row.Group) {
      if (LastGroup)
        T.addSeparator();
      T.addRow({Row.Group});
      LastGroup = Row.Group;
    }
    for (double OptLat : Row.OptimisticLatencies) {
      std::vector<std::string> Cells = {Row.Memory->name(),
                                        formatDouble(OptLat, 2)};
      Rest(Row, Cells);
      T.addRow(std::move(Cells));
    }
  }
}

/// \p Lead, then Tables 3 and 5's columns: TIns, BIns, then Imp%, TI% and
/// BI% per processor model.
std::vector<std::string> processorHeader(std::vector<std::string> Lead) {
  Lead.insert(Lead.end(), {"TIns", "BIns"});
  for (const char *P : {"UNL", "MAX8", "LEN8"})
    for (const char *Column : {" Imp%", " TI%", " BI%"})
      Lead.push_back(P + std::string(Column));
  return Lead;
}

/// Appends processorHeader's cells from the next cell per processor model
/// at \p Next (TIns/BIns from the UNLIMITED one), advancing past them.
void addProcessorCells(std::vector<std::string> &Row,
                       const CellOutcome *&Next) {
  if (const CellOutcome &Unl = *Next; !Unl.ok())
    Row.insert(Row.end(), {"n/a", "n/a"});
  else
    for (const ProgramSimResult *S :
         {&Unl.Comparison->TraditionalSim, &Unl.Comparison->CandidateSim})
      Row.push_back(formatDouble(S->DynamicInstructions / 1000.0, 0));
  for (const CellOutcome &Out : std::span(Next, std::size(Processors))) {
    if (!Out.ok()) {
      Row.insert(Row.end(), {"n/a (" + Out.firstError() + ")", "n/a", "n/a"});
      continue;
    }
    const SchedulerComparison &C = *Out.Comparison;
    for (double V : {C.Improvement.MeanPercent,
                     C.TraditionalSim.interlockPercent(),
                     C.CandidateSim.interlockPercent()})
      Row.push_back(formatPercent(V));
  }
  Next += std::size(Processors);
}

/// Table 2's shape claims: Larger's row mean exceeds Smaller's, on the
/// hit-time (0) or the effective-latency (1) row.
const struct {
  const char *What, *Larger, *Smaller;
  size_t Row;
} Table2Claims[] = {
    {"miss penalty", "L80(2,10)", "L80(2,5)", 0},
    {"miss penalty", "L95(2,10)", "L95(2,5)", 0},
    {"miss rate", "L80(2,5)", "L95(2,5)", 0},
    {"miss rate", "L80(2,10)", "L95(2,10)", 0},
    {"miss penalty", "L80(2,10)", "L80(2,5)", 1},
    {"miss penalty", "L95(2,10)", "L95(2,5)", 1},
    {"miss rate", "L80(2,5)", "L95(2,5)", 1},
    {"miss rate", "L80(2,10)", "L95(2,10)", 1},
    {"sigma", "N(2,5)", "N(2,2)", 0},
    {"sigma", "N(3,5)", "N(3,2)", 0},
    {"sigma", "N(5,5)", "N(5,2)", 0}};

} // namespace

void repro::figures1to5(Report &R) {
  R.say("Figures 1-3: the paper's worked example\n"
        "=======================================\n\n");
  // --- Balanced weights on the Figure 1 DAG (section 3's 1 + 4/2 = 3).
  DepDag Fig1 = fixtures::makeFigure1Dag();
  BalancedWeighter().assignWeights(Fig1);
  R.say("Figure 1 DAG: L0 -> L1 -> X4; X0..X3 independent.\n"
        "Balanced weights: L0 = %.2f, L1 = %.2f (paper: 3 = 1 + 4/2)\n\n"
        "Figure 2 schedules (as illustrated in the paper):\n",
        Fig1.weight(0), Fig1.weight(1));
  for (const auto &S : Figure2)
    R.say("  %-30s%s\n", S.Label, S.Order);
  // --- What our bottom-up list scheduler emits for the same weights.
  const std::string Ours[] = {scheduleFigure1(R, false, 5),
                              scheduleFigure1(R, false, 1),
                              scheduleFigure1(R, true, 0)};
  R.say("\nOur bottom-up list scheduler (mirror-image greedy/lazy; see "
        "DESIGN.md):\n  traditional W=5: %s\n  traditional W=1: %s\n"
        "  balanced:        %s\n\n",
        Ours[0].c_str(), Ours[1].c_str(), Ours[2].c_str());
  // --- Figure 3: interlocks versus actual latency.
  Table T("Figure 3: interlock cycles vs. actual load latency");
  T.setHeader({"Latency", "Greedy (2a)", "Lazy (2b)", "Balanced (2c)"});
  for (unsigned Latency = 1; Latency <= 8; ++Latency) {
    std::vector<std::string> Row = {std::to_string(Latency)};
    for (const auto &S : Figure2) {
      uint64_t Cycles = interlocks(S.Order, Latency);
      R.add(Cycles);
      Row.push_back(std::to_string(Cycles));
    }
    T.addRow(std::move(Row));
  }
  R.say("%s", T.toString().c_str());
  R.say("\nPaper's claim: for latencies 2-4 the balanced schedule beats "
        "both\ntraditional schedules; outside that range they are "
        "equivalent.\n\n");
  // --- Figure 4/5: parallel loads share padding.
  DepDag Fig4 = fixtures::makeFigure4Dag();
  BalancedWeighter().assignWeights(Fig4);
  R.say("Figure 4 (parallel loads): balanced weights L0 = %.2f, L1 = %.2f\n"
        "(prose says 6 = 1 + 5/1 counting only the X instructions; Figure "
        "6's\nalgorithm adds the other parallel load's slot, giving 7 — see "
        "DESIGN.md.)\n",
        Fig4.weight(0), Fig4.weight(1));
  for (const DepDag *Dag : {&Fig1, &Fig4})
    for (unsigned Load : {0, 1})
      R.add(Dag->weight(Load));
}

void repro::table1(Report &R) {
  R.say("Table 1: weight contributions for the Figure 7 DAG\n"
        "==================================================\n\n"
        "Figure 7 reconstruction (DESIGN.md): L1 isolated; L2 -> {L3, X1, "
        "X2};\nL3 -> {L4, L5}; L5 -> L6; X3 -> X2; X4 -> X2.\n\n");
  DepDag Dag = fixtures::makeFigure7Dag();
  BalancedWeighter::Breakdown BD = BalancedWeighter().computeBreakdown(Dag);

  // Paper layout: one row per load (the first six contributors), one
  // column per contributor.
  const char *Names[] = {"L1", "L2", "L3", "L4", "L5",
                         "L6", "X1", "X2", "X3", "X4"};
  const unsigned Nodes[] = {Figure7::L1, Figure7::L2, Figure7::L3, Figure7::L4,
                            Figure7::L5, Figure7::L6, Figure7::X1, Figure7::X2,
                            Figure7::X3, Figure7::X4};
  auto Twelfths = [&](double V) { R.add(V); return formatTwelfths(V); };
  Table T;
  std::vector<std::string> Header = {"Load"};
  Header.insert(Header.end(), std::begin(Names), std::end(Names));
  Header.push_back("Weight");
  T.setHeader(std::move(Header));
  for (unsigned L = 0; L != 6; ++L) {
    std::vector<std::string> Row = {Names[L]};
    for (unsigned C : Nodes)
      Row.push_back(Twelfths(BD.Contribution[C][Nodes[L]]));
    Row.push_back(Twelfths(BD.Weights[Nodes[L]]));
    T.addRow(std::move(Row));
  }
  R.say("%s", T.toString().c_str());
  R.say("\nPaper's printed totals: L1 = 10, L2 = 1 1/4, L3 = 2 5/12,\n"
        "L4 = 4 5/12, L5 = L6 = 2 11/12.\nOur reconstruction matches every "
        "total except L2, where Figure 6's\nalgorithm forces 1 3/4 (X3 and "
        "X4 each see L2 on a 4-load path and\nmust contribute 1/4); the "
        "paper's own per-cell rows are\ninconsistent with its totals there "
        "(hand-computed figure erratum —\nsee DESIGN.md).\n");
}

void repro::table2(Report &R) {
  R.say("Table 2: percent improvement from balanced scheduling, processor "
        "model UNLIMITED\n(positive = balanced faster; paper averages "
        "3%%-18%% per system row, mean 9.9%%)\n\n");
  // One cell per (system row, optimistic latency, benchmark); the engine's
  // compile cache collapses each benchmark's balanced compiles across rows.
  std::vector<std::pair<Benchmark, Function>> Programs = paperPrograms();
  std::vector<SystemRow> Systems = paperSystems();
  std::vector<ExperimentCell> Matrix;
  for (const SystemRow &Row : Systems)
    for (double OptLat : Row.OptimisticLatencies)
      for (const auto &[B, F] : Programs)
        Matrix.push_back(cell(Row.Memory->name() + "/" + benchmarkName(B), F,
                              *Row.Memory, OptLat, Processors[0]));
  MetricRegistry Metrics;
  EngineResult Run = runCells(R, Matrix, ObsContext{&Metrics, nullptr, {}});
  Table T;
  std::vector<std::string> Header = {"System", "OptLat"};
  for (const auto &[B, F] : Programs)
    Header.push_back(benchmarkName(B));
  Header.push_back("Mean");
  T.setHeader(std::move(Header));

  // A mean over a failed cell is NaN, printed n/a. Row means by system
  // name, in OptimisticLatencies order: [0] is the hit-time row, [1] the
  // effective-latency row where there is one.
  std::map<std::string, std::vector<double>> RowMeans;
  double GrandSum = 0.0;
  unsigned GrandCount = 0;
  const CellOutcome *Next = Run.Cells.data();
  addSystemRows(T, Systems, [&](const SystemRow &Row, auto &Cells) {
    double Sum = 0.0;
    for (const CellOutcome &Out : std::span(Next, Programs.size())) {
      double Imp = Out.ok() ? Out.Comparison->Improvement.MeanPercent : NAN;
      Sum += Imp;
      Cells.push_back(Out.ok() ? formatPercent(Imp)
                               : "n/a (" + Out.firstError() + ")");
    }
    Next += Programs.size();
    double Mean = Sum / static_cast<double>(Programs.size());
    Cells.push_back(formatMean(Mean));
    RowMeans[Row.Memory->name()].push_back(Mean);
    GrandSum += Mean;
    ++GrandCount;
  });
  R.say("%s", T.toString().c_str());
  const double GrandMean = GrandSum / GrandCount;
  R.say("\nGrand mean over all system rows: %s%s\n",
        formatMean(GrandMean).c_str(), std::isnan(GrandMean) ? "" : "%");
  // Machine-readable artifact: run shape, wall time, simulated cycles
  // (from the engine's metric registry), grand mean.
  if (R.Out) {
    JsonWriter W;
    W.beginObject().key("name").value("table2_unlimited");
    W.key("config").beginObject().key("processor").value("unlimited");
    W.key("benchmarks").value(Programs.size());
    W.key("system_rows").value(Systems.size());
    W.key("cells").value(Matrix.size());
    W.key("runs_per_block").value(Matrix.front().Sim.NumRuns).endObject();
    W.key("wall_ms").valueFixed(Run.Counters.WallMillis, 3);
    W.key("cache_hits").value(Run.Counters.CacheHits);
    W.key("cache_misses").value(Run.Counters.CacheMisses);
    W.key("cycles").value(
        counterOrZero(Metrics.snapshot(), "bsched.sim.cycles"));
    W.key("grand_mean_percent").valueFixed(GrandMean, 3).endObject();
    writeBenchArtifact("table2_unlimited", W);
  }

  R.say("\nShape checks against the paper (row means):\n");
  if (Run.Counters.Failed != 0) {
    R.ClaimsHold = false;
    R.say("  FAIL %u cells failed; the row means are incomplete\n",
          Run.Counters.Failed);
  }
  for (const auto &C : Table2Claims) {
    double A = RowMeans.at(C.Larger).at(C.Row);
    double B = RowMeans.at(C.Smaller).at(C.Row);
    R.ClaimsHold &= A > B;
    R.say("  %s %-13s %s: %s %s > %s %s\n", A > B ? "ok  " : "FAIL", C.What,
          C.Row == 0 ? "hit-time " : "effective", C.Larger,
          formatMean(A).c_str(), C.Smaller, formatMean(B).c_str());
  }
  R.say("  (N(30,5) is the stress case, latency >> LLP: balanced can lose; "
        "see\n  EXPERIMENTS.md for the divergence discussion.)\n");
  if (!R.ClaimsHold)
    R.say("Table 2 shape check FAILED\n");
}

void repro::table3(Report &R) {
  R.say("Table 3: detailed analysis of MDG\n(Imp%% = improvement; "
        "TI%%/BI%% = interlock share of cycles for traditional/balanced;\n"
        " TIns/BIns = dynamic instructions, in thousands)\n\n");
  // A row's three cells differ only in the simulated processor, so every
  // compilation after the first row is a cache hit.
  Function F = buildBenchmark(Benchmark::MDG);
  std::vector<SystemRow> Systems = paperSystems();
  std::vector<ExperimentCell> Matrix;
  for (const SystemRow &Row : Systems)
    for (double OptLat : Row.OptimisticLatencies)
      for (const ProcessorModel &P : Processors)
        Matrix.push_back(cell(Row.Memory->name() + "/" + P.name(), F,
                              *Row.Memory, OptLat, P));
  EngineResult Run = runCells(R, Matrix);
  Table T;
  T.setHeader(processorHeader({"System", "OptLat"}));
  const CellOutcome *Next = Run.Cells.data();
  addSystemRows(T, Systems, [&](const SystemRow &, auto &Cells) {
    addProcessorCells(Cells, Next);
  });
  R.say("%s", T.toString().c_str());
  R.say("\nPaper's shape: BI%% < TI%% on (almost) every row — balanced "
        "schedules\nincur fewer interlocks; MAX-8 shows the highest "
        "interlock shares, and\nimprovements persist on the restricted "
        "processors even though the\nbalanced scheduler is not tuned for "
        "them (section 4.4).\n");
}

void repro::table4(Report &R) {
  R.say("Table 4: spill instructions as a percentage of executed "
        "instructions\n(BIns = balanced dynamic instructions, in "
        "thousands)\n\n");
  // Traditional scheduling at every optimistic latency of Table 2's rows,
  // ascending: {2, 2.15, 2.4, 2.6, 3, 3.6, 5, 7.6, 30}.
  std::set<double> Latencies;
  for (const SystemRow &Row : paperSystems())
    Latencies.insert(Row.OptimisticLatencies.begin(),
                     Row.OptimisticLatencies.end());
  Table T;
  std::vector<std::string> Header = {"Program", "BIns", "Balanced"};
  for (double L : Latencies)
    Header.push_back("T@" + formatDouble(L, 2));
  T.setHeader(std::move(Header));
  for (const auto &[B, F] : paperPrograms()) {
    PipelineConfig Config = PipelineConfig::paperDefault(); // Balanced.
    CompiledFunction Bal = runPipeline(F, Config).value();
    addCompiled(R, Bal);
    std::vector<std::string> Row = {
        benchmarkName(B), formatDouble(Bal.DynamicInstructions / 1000.0, 0),
        formatDouble(Bal.spillPercent(), 2)};
    Config.Policy = SchedulerPolicy::Traditional;
    for (double L : Latencies) {
      Config.OptimisticLatency = L;
      CompiledFunction Trad = runPipeline(F, Config).value();
      addCompiled(R, Trad);
      Row.push_back(formatDouble(Trad.spillPercent(), 2));
    }
    T.addRow(std::move(Row));
  }
  R.say("%s", T.toString().c_str());
  R.say("\nPaper's shape: QCD2 and BDNA are the spill-heavy programs, FLO52Q "
        "the\nlightest; traditional spill grows sharply at the 30-cycle "
        "optimistic\nlatency (long hoisting distances stretch live ranges). "
        "Divergence from\nthe paper: at small optimistic latencies our "
        "traditional scheduler spills\nless than balanced, where GCC's "
        "spilled more — see EXPERIMENTS.md.\n");
}

void repro::table5(Report &R) {
  R.say("Table 5: analysis of the N(30,5) results (the effect of spill code "
        "and\nunhideable latency)\n\n");
  // Cells vary only in the simulated processor within a benchmark row, so
  // the engine compiles each benchmark's pair of schedules exactly once.
  NetworkSystem Memory(30, 5);
  std::vector<std::pair<Benchmark, Function>> Programs = paperPrograms();
  std::vector<ExperimentCell> Matrix;
  for (const auto &[B, F] : Programs)
    for (const ProcessorModel &P : Processors)
      Matrix.push_back(
          cell(benchmarkName(B) + "/" + P.name(), F, Memory, 30, P));
  EngineResult Run = runCells(R, Matrix);
  Table T;
  T.setHeader(processorHeader({"Program"}));
  const CellOutcome *Next = Run.Cells.data();
  for (const auto &[B, F] : Programs) {
    std::vector<std::string> Row = {benchmarkName(B)};
    addProcessorCells(Row, Next);
    T.addRow(std::move(Row));
  }
  R.say("%s", T.toString().c_str());
  R.say("\nPaper's shape: with a 30-cycle mean latency, interlocks dominate "
        "both\nschedulers' runtimes, improvements hover around zero (some "
        "negative),\nand whichever scheduler executes more spill "
        "instructions loses. Our\ntraditional scheduler clusters loads more "
        "cheaply than GCC's could, so\nits wins here are larger than the "
        "paper's — see EXPERIMENTS.md.\n");
}
