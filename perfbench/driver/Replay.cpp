//===- perfbench/driver/Replay.cpp - Layer-by-layer replay ----------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
//
// Each function below follows the control flow of the library entry point
// it names (pipeline/Pipeline.cpp, pipeline/Experiment.cpp,
// pipeline/CompileCache.cpp); keep them in step when those change. The
// traced run's fidelity check fails loudly when they drift.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "Tracer.h"

#include "analysis/AllocationCertifier.h"
#include "analysis/MemDepCertifier.h"
#include "analysis/ScheduleCertifier.h"
#include "ir/IrVerifier.h"
#include "pipeline/CompileCache.h"
#include "regalloc/RegisterRenaming.h"
#include "sched/AverageWeighter.h"
#include "sched/BalancedWeighter.h"
#include "sched/TraditionalWeighter.h"
#include "sched/WeighterScratch.h"
#include "sim/Simulator.h"
#include "support/FailPoint.h"
#include "support/ThreadPool.h"

#include <memory>
#include <optional>
#include <vector>

using namespace bsched;
using namespace perfbench;

namespace {

Diagnostic replayError(std::string Message) {
  return {0, 0, std::move(Message), Severity::Error,
          DiagCode::PipelineBadConfig};
}

/// The counters runPipeline records when it has a registry (Pipeline.cpp,
/// PipelineInstruments), under the same names.
struct Instruments {
  explicit Instruments(MetricRegistry &Reg)
      : Kernels(Reg.counter("bsched.pipeline.kernels")),
        Blocks(Reg.counter("bsched.pipeline.blocks")),
        DagNodes(Reg.counter("bsched.dag.nodes")),
        DagEdges(Reg.counter("bsched.dag.edges")),
        SpillInstructions(Reg.counter("bsched.regalloc.spill_instructions")),
        ScheduleCerts(Reg.counter("bsched.analysis.schedule_certificates")),
        AllocationCerts(
            Reg.counter("bsched.analysis.allocation_certificates")),
        MemDepCerts(Reg.counter("bsched.analysis.memdep_certificates")),
        AliasQueries(Reg.counter("bsched.alias.queries")),
        AliasNo(Reg.counter("bsched.alias.no_alias")),
        AliasMust(Reg.counter("bsched.alias.must_alias")),
        AliasMay(Reg.counter("bsched.alias.may_alias")),
        MemEdgesPruned(Reg.counter("bsched.dag.mem_edges_pruned")),
        WeighterBlocks(Reg.counter("bsched.sched.weighter_blocks")),
        WeighterScratchReuses(
            Reg.counter("bsched.sched.weighter_scratch_reuses")) {}

  Counter Kernels, Blocks, DagNodes, DagEdges, SpillInstructions;
  Counter ScheduleCerts, AllocationCerts, MemDepCerts;
  Counter AliasQueries, AliasNo, AliasMust, AliasMay, MemEdgesPruned;
  Counter WeighterBlocks, WeighterScratchReuses;
};

std::unique_ptr<Weighter> makeWeighter(const PipelineConfig &Config) {
  const double Width = static_cast<double>(Config.SchedOptions.IssueWidth);
  switch (Config.Policy) {
  case SchedulerPolicy::Traditional:
    return std::make_unique<TraditionalWeighter>(Config.OptimisticLatency,
                                                 Config.Ops);
  case SchedulerPolicy::Balanced:
    return std::make_unique<BalancedWeighter>(
        Config.Ops, ChancesMethod::ExactLongestPath, Width,
        Config.HonorKnownLatency, Config.Closure);
  case SchedulerPolicy::BalancedUnionFind:
    return std::make_unique<BalancedWeighter>(
        Config.Ops, ChancesMethod::UnionFindLevels, Width,
        Config.HonorKnownLatency, Config.Closure);
  case SchedulerPolicy::AverageLlp:
    return std::make_unique<AverageWeighter>(Config.Ops);
  case SchedulerPolicy::NoScheduling:
    return nullptr;
  }
  return nullptr;
}

/// One scheduling pass over \p BB (runPipeline's scheduleBlock): build and
/// weight the DAG, schedule, certify, apply.
std::vector<Diagnostic> schedulePass(BasicBlock &BB, const Weighter &W,
                                     const PipelineConfig &Config,
                                     Instruments *Metrics,
                                     WeighterScratch &Scratch, DepDag &Dag,
                                     ReplayCounters &Counters) {
  const uint32_t N = BB.size();
  if (Metrics) {
    Metrics->WeighterBlocks.add();
    if (Scratch.warm())
      Metrics->WeighterScratchReuses.add();
  }
  DagBuildOptions DagOptions = Config.DagOptions;
  DagAliasStats AliasStats;
  DagOptions.AliasStats = &AliasStats;
  {
    Scope S(Call::DagBuild, N);
    buildDagInto(Dag, BB, DagOptions);
  }
  if (Metrics) {
    Metrics->AliasQueries.add(AliasStats.Queries);
    Metrics->AliasNo.add(AliasStats.NoAlias);
    Metrics->AliasMust.add(AliasStats.MustAlias);
    Metrics->AliasMay.add(AliasStats.MayAlias);
    Metrics->MemEdgesPruned.add(AliasStats.EdgesPruned);
  }
  {
    Scope S(Call::SchedWeight, N);
    W.assignWeights(Dag, Scratch);
  }
  uint64_t Edges = 0;
  for (unsigned I = 0; I != Dag.size(); ++I)
    Edges += Dag.succs(I).size();
  if (Metrics) {
    Metrics->DagNodes.add(Dag.size());
    Metrics->DagEdges.add(Edges);
  }
  Counters.DagNodes += Dag.size();
  Counters.DagEdges += Edges;
  Counters.AliasQueries += AliasStats.Queries;
  Counters.MemEdgesPruned += AliasStats.EdgesPruned;

  SchedulerOptions SchedOptions = Config.SchedOptions;
  if (!SchedOptions.Metrics)
    SchedOptions.Metrics = Config.Obs.Metrics;
  Schedule Sched;
  {
    Scope S(Call::SchedList, N);
    Sched = scheduleDag(Dag, SchedOptions);
  }
  if (Config.Certify) {
    if (Metrics)
      Metrics->ScheduleCerts.add();
    std::vector<Diagnostic> Violations;
    {
      Scope S(Call::ScheduleCert, N);
      Violations = certifySchedule(BB, Dag, Sched, Config.Ops, SchedOptions);
    }
    if (Violations.empty()) {
      if (Metrics)
        Metrics->MemDepCerts.add();
      Scope S(Call::MemDepCert, N);
      Violations = certifyMemDep(BB, Dag, Config.DagOptions);
    }
    if (!Violations.empty()) {
      Counters.Violations += Violations.size();
      return Violations;
    }
  }
  applySchedule(BB, Dag, Sched);
  return {};
}

std::vector<Diagnostic> verifyTraced(const Function &F) {
  Scope S(Call::IrVerify, F.totalInstructions());
  return verifyFunction(F);
}

} // namespace

ErrorOr<CompiledFunction>
perfbench::replayPipeline(const Function &Input, const PipelineConfig &Config,
                          ReplayCounters &Counters) {
  if (Config.Budget.active() || anyFailPointsEnabled() ||
      (Config.WeighterPool && Config.WeighterPool->workerCount() > 1))
    return replayError("replay covers unbudgeted, fault-free, serial "
                       "compiles only");
  Status ConfigStatus = validatePipelineConfig(Config);
  if (!ConfigStatus.ok())
    return ConfigStatus.diagnostics();
  std::vector<Diagnostic> InputDiags = verifyTraced(Input);
  if (!verifyClean(InputDiags))
    return InputDiags;

  CompiledFunction Result;
  Result.Compiled = Input;
  Function &F = Result.Compiled;
  std::optional<Instruments> MetricsStorage;
  if (Config.Obs.Metrics)
    MetricsStorage.emplace(*Config.Obs.Metrics);
  Instruments *Metrics = MetricsStorage ? &*MetricsStorage : nullptr;
  if (Metrics)
    Metrics->Kernels.add();
  std::unique_ptr<Weighter> W = makeWeighter(Config);
  WeighterScratch Scratch;
  DepDag Dag;
  for (BasicBlock &BB : F) {
    if (Metrics)
      Metrics->Blocks.add();
    if (W) {
      std::vector<Diagnostic> Violations =
          schedulePass(BB, *W, Config, Metrics, Scratch, Dag, Counters);
      if (!Violations.empty())
        return Violations;
    }
    unsigned Spills = 0;
    if (Config.RunRegAlloc) {
      std::optional<BasicBlock> PreAlloc;
      if (Config.Certify)
        PreAlloc.emplace(BB);
      RegAllocResult Alloc;
      {
        Scope S(Call::RegAlloc, BB.size());
        Alloc = allocateRegisters(F, BB, Config.Target);
      }
      Spills = Alloc.spillInstructions();
      if (Metrics && Spills != 0)
        Metrics->SpillInstructions.add(Spills);
      if (Config.Certify) {
        if (Metrics)
          Metrics->AllocationCerts.add();
        std::vector<Diagnostic> Violations;
        {
          Scope S(Call::AllocCert, BB.size());
          Violations = certifyAllocation(
              *PreAlloc, BB, Alloc, Config.Target,
              F.getOrCreateAliasClass(SpillAliasClassName));
        }
        if (!Violations.empty()) {
          Counters.Violations += Violations.size();
          return Violations;
        }
      }
      if (Config.RenameAfterAllocation)
        renameRegisters(BB, Config.Target);
      if (W && Config.SecondSchedulingPass) {
        std::vector<Diagnostic> Violations =
            schedulePass(BB, *W, Config, Metrics, Scratch, Dag, Counters);
        if (!Violations.empty())
          return Violations;
      }
    }
    Result.SpillPerBlock.push_back(Spills);
    Result.StaticInstructions += BB.size();
    Result.StaticSpills += Spills;
    Result.DynamicInstructions += BB.frequency() * BB.size();
    Result.DynamicSpills += BB.frequency() * Spills;
  }
  Counters.Compiles += 1;
  Counters.SpillInstrs += Result.StaticSpills;

  std::vector<Diagnostic> OutputDiags = verifyTraced(F);
  if (!verifyClean(OutputDiags))
    return OutputDiags;
  return Result;
}

ErrorOr<ProgramSimResult>
perfbench::replaySimulation(const CompiledFunction &Program,
                            const MemorySystem &Memory,
                            const SimulationConfig &Config) {
  if (anyFailPointsEnabled())
    return replayError("replay covers fault-free simulations only");
  Status ConfigStatus = validateSimulationConfig(Config);
  if (!ConfigStatus.ok())
    return ConfigStatus.diagnostics();
  std::vector<Diagnostic> ProgramDiags = verifyTraced(Program.Compiled);
  if (!verifyClean(ProgramDiags))
    return ProgramDiags;

  std::optional<SimInstruments> Instruments;
  if (Config.Obs.Metrics)
    Instruments.emplace(*Config.Obs.Metrics);
  SimInstruments *Obs = Instruments ? &*Instruments : nullptr;

  ProgramSimResult Result;
  Result.BootstrapRuntimes.assign(Config.NumResamples, 0.0);
  const Function &F = Program.Compiled;
  for (unsigned BlockIndex = 0; BlockIndex != F.numBlocks(); ++BlockIndex) {
    const BasicBlock &BB = F.block(BlockIndex);
    std::vector<double> Samples;
    Samples.reserve(Config.NumRuns);
    double InterlockSum = 0.0;
    for (unsigned Run = 0; Run != Config.NumRuns; ++Run) {
      Rng R(Config.Seed ^ (0x9E3779B97F4A7C15ULL * (BlockIndex + 1)) ^
            (0xD1B54A32D192ED03ULL * (Run + 1)));
      BlockSimResult Sim;
      {
        Scope S(Call::SimBlock, BB.size());
        Sim = simulateBlock(BB, Config.Processor, Memory, R, Config.Ops, Obs);
      }
      Samples.push_back(static_cast<double>(Sim.Cycles));
      InterlockSum += static_cast<double>(Sim.InterlockCycles);
    }
    Rng BootRng(Config.Seed ^ (0xA0761D6478BD642FULL * (BlockIndex + 7)));
    std::vector<double> Means;
    {
      Scope S(Call::StatsBootstrap);
      Means = bootstrapMeans(Samples, Config.NumResamples, BootRng);
    }
    for (unsigned I = 0; I != Config.NumResamples; ++I)
      Result.BootstrapRuntimes[I] += BB.frequency() * Means[I];
    Result.DynamicInstructions += BB.frequency() * BB.size();
    Result.MeanInterlockCycles +=
        BB.frequency() * (InterlockSum / Config.NumRuns);
  }
  Result.MeanRuntime = mean(Result.BootstrapRuntimes);
  return Result;
}

void ReplayCounters::report(RunResult &R) const {
  auto Ratio = [](uint64_t Num, uint64_t Den) {
    return Den == 0 ? 0.0
                    : static_cast<double>(Num) / static_cast<double>(Den);
  };
  R.Layer.push_back({"dag.edges_per_instr", Ratio(DagEdges, DagNodes),
                     "edges/instr"});
  R.Layer.push_back({"dag.mem_edges_pruned_ratio",
                     Ratio(MemEdgesPruned, AliasQueries), "ratio"});
  R.Layer.push_back({"regalloc.spill_instrs", Ratio(SpillInstrs, Compiles),
                     "instrs/compile"});
  R.Layer.push_back({"pipeline.cache.hit_ratio",
                     Ratio(CacheHits, CacheLookups), "ratio"});
  R.Layer.push_back({"analysis.violations",
                     static_cast<double>(Violations.load()), "count"});
}

namespace {

/// A miss the calling thread replayed, for ReplayCache::fillMisses, with
/// the copies of its key and result that CompileCache's insert makes (the
/// real cache has no insert of its own, so fillMisses compiles again).
struct PendingMiss {
  ReplayCache *Cache;
  const Function *Program;
  PipelineConfig Config;
  std::string Identity;
  std::string Key;
  std::shared_ptr<const CompiledFunction> Entry;
};

thread_local std::vector<PendingMiss> PendingMisses;

std::string identityOf(const Function &F, const PipelineConfig &Config) {
  return F.name() + '/' + policyName(Config.Policy) + '/' +
         std::to_string(Config.OptimisticLatency);
}

} // namespace

bool ReplayCache::holds(const std::string &Identity) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Held.count(Identity) != 0;
}

void ReplayCache::fillMisses() {
  std::vector<PendingMiss> Mine;
  for (PendingMiss &P : PendingMisses)
    if (P.Cache == this)
      Mine.push_back(std::move(P));
  std::erase_if(PendingMisses,
                [this](const PendingMiss &P) { return P.Cache == this; });
  for (PendingMiss &P : Mine) {
    (void)Real.compile(*P.Program, P.Config);
    std::lock_guard<std::mutex> Lock(Mutex);
    Held.insert(std::move(P.Identity));
  }
}

ErrorOr<CompiledFunction>
perfbench::replayCachedCompile(ReplayCache &Cache, const Function &F,
                               const PipelineConfig &Config,
                               ReplayCounters &Counters, bool *WasHit,
                               MetricRegistry *Sink) {
  Counters.CacheLookups += 1;
  std::string Identity = identityOf(F, Config);
  bool Hit = Cache.holds(Identity);
  if (WasHit)
    *WasHit = Hit;
  if (Hit) {
    ErrorOr<CompiledFunction> Result = [&] {
      Scope S(Call::CacheLookup);
      return Cache.Real.compile(F, Config, &Hit, Sink);
    }();
    if (!Hit)
      return replayError("the compile cache no longer holds " + Identity);
    Counters.CacheHits += 1;
    return Result;
  }

  // A miss: CompileCache::compile keys the compile, finds nothing,
  // compiles into a private registry, merges its snapshot into the sink,
  // and copies the key and the result into a sized entry.
  std::string Key;
  {
    Scope S(Call::CacheKey, F.totalInstructions());
    Key = experimentCacheKey(F, Config);
  }
  MetricRegistry CompileReg(2);
  PipelineConfig CompileConfig = Config;
  CompileConfig.Obs.Metrics = &CompileReg;
  ErrorOr<CompiledFunction> Result =
      replayPipeline(F, CompileConfig, Counters);
  if (!Result)
    return Result;
  MetricSnapshot Snapshot = CompileReg.snapshot();
  if (MetricRegistry *Out = Sink ? Sink : Config.Obs.Metrics)
    Out->mergeSnapshot(Snapshot);
  auto Entry = std::make_shared<const CompiledFunction>(*Result);
  (void)CompileCache::entryBytes(Key, *Entry, Snapshot);
  PendingMisses.push_back(
      {&Cache, &F, Config, std::move(Identity), Key, std::move(Entry)});
  return Result;
}
