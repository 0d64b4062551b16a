//===- pipeline/Pipeline.cpp - The two-pass compile pipeline ----------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "analysis/AllocationCertifier.h"
#include "analysis/MemDepCertifier.h"
#include "analysis/ScheduleCertifier.h"
#include "ir/IrVerifier.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "regalloc/RegisterRenaming.h"

#include "sched/AverageWeighter.h"
#include "sched/BalancedWeighter.h"
#include "sched/TraditionalWeighter.h"
#include "sched/WeighterScratch.h"

#include "support/Check.h"
#include "support/FailPoint.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>

using namespace bsched;

std::string bsched::policyName(SchedulerPolicy Policy) {
  switch (Policy) {
  case SchedulerPolicy::Traditional:
    return "traditional";
  case SchedulerPolicy::Balanced:
    return "balanced";
  case SchedulerPolicy::BalancedUnionFind:
    return "balanced-uf";
  case SchedulerPolicy::AverageLlp:
    return "average-llp";
  case SchedulerPolicy::NoScheduling:
    return "unscheduled";
  }
  return "unknown";
}

ErrorOr<SchedulerPolicy> bsched::parsePolicyName(std::string_view Name) {
  const SchedulerPolicy All[] = {
      SchedulerPolicy::Traditional, SchedulerPolicy::Balanced,
      SchedulerPolicy::BalancedUnionFind, SchedulerPolicy::AverageLlp,
      SchedulerPolicy::NoScheduling};
  std::string_view Trimmed = trim(Name);
  std::string Known;
  for (SchedulerPolicy P : All) {
    if (Trimmed == policyName(P))
      return P;
    if (!Known.empty())
      Known += ", ";
    Known += policyName(P);
  }
  return Diagnostic{0, 0,
                    "unknown scheduler policy '" + std::string(Trimmed) +
                        "' (expected one of: " + Known + ")",
                    Severity::Error, DiagCode::PipelineUnknownPolicy};
}

std::string_view bsched::degradationName(DegradationLevel Level) {
  switch (Level) {
  case DegradationLevel::None:
    return "none";
  case DegradationLevel::UnionFindChances:
    return "union-find-chances";
  case DegradationLevel::CertifyOff:
    return "certify-off";
  }
  return "unknown";
}

PipelineConfig PipelineConfig::paperDefault() { return PipelineConfig(); }

PipelineConfig PipelineConfig::unlimitedRegisters() {
  PipelineConfig Config;
  Config.RunRegAlloc = false;
  return Config;
}

PipelineConfig PipelineConfig::superscalar(unsigned Width) {
  PipelineConfig Config;
  Config.SchedOptions.IssueWidth = Width;
  return Config;
}

Status PipelineConfig::validate() const {
  return validatePipelineConfig(*this);
}

namespace {

/// Pipeline metric handles, resolved once per runPipeline call so the
/// per-block loop records without touching the registration mutex.
struct PipelineInstruments {
  explicit PipelineInstruments(MetricRegistry &Reg)
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

  Counter Kernels;
  Counter Blocks;
  Counter DagNodes;
  Counter DagEdges;
  Counter SpillInstructions;
  Counter ScheduleCerts;
  Counter AllocationCerts;
  Counter MemDepCerts;
  /// Alias-query outcomes from DAG construction; EdgesPruned counts the
  /// NoAlias answers, i.e. memory edges the conservative builder would
  /// have added. Each block is built exactly once per pass regardless of
  /// which worker compiles it, so these stay serial-vs-pooled identical.
  Counter AliasQueries;
  Counter AliasNo;
  Counter AliasMust;
  Counter AliasMay;
  Counter MemEdgesPruned;
  /// Per-block weighting runs; WeighterScratchReuses counts the subset
  /// served by an already-warm scratch (the difference is the number of
  /// cold scratch allocations). Scratch-reuse counts depend on which
  /// worker compiles which block, so they are the one pipeline metric
  /// exempt from the serial-vs-pooled determinism guarantee when
  /// WeighterPool is set.
  Counter WeighterBlocks;
  Counter WeighterScratchReuses;
};

std::unique_ptr<Weighter> makeWeighter(const PipelineConfig &Config) {
  switch (Config.Policy) {
  case SchedulerPolicy::Traditional:
    return std::make_unique<TraditionalWeighter>(Config.OptimisticLatency,
                                                 Config.Ops);
  case SchedulerPolicy::Balanced:
    return std::make_unique<BalancedWeighter>(
        Config.Ops, ChancesMethod::ExactLongestPath,
        static_cast<double>(Config.SchedOptions.IssueWidth),
        Config.HonorKnownLatency);
  case SchedulerPolicy::BalancedUnionFind:
    return std::make_unique<BalancedWeighter>(
        Config.Ops, ChancesMethod::UnionFindLevels,
        static_cast<double>(Config.SchedOptions.IssueWidth),
        Config.HonorKnownLatency);
  case SchedulerPolicy::AverageLlp:
    return std::make_unique<AverageWeighter>(Config.Ops);
  case SchedulerPolicy::NoScheduling:
    return nullptr;
  }
  return nullptr;
}

/// Fail-point sub-key constants: one per site a block-pass can fault at,
/// mixed into the pass key so each site draws independently.
enum FaultSite : uint64_t {
  FaultDagBuild = 1,
  FaultClosureAlloc = 2,
  FaultWeighting = 3,
  FaultScheduling = 4,
  FaultRegAlloc = 5,
  FaultCertify = 6,
};

/// Content key for keyed fail-point evaluation: a function of the kernel's
/// name and shape only, so a given compile faults identically whether the
/// experiment engine runs serially or across a pool.
uint64_t functionFaultKey(const Function &F) {
  return failPointMix(stableHash(F.name()), F.numBlocks());
}

/// One scheduling pass over \p BB in place. When certifying, the schedule
/// is validated *before* it is applied; on failure the block is left
/// untouched and the violations are returned. \p Dag is the caller's
/// DAG buffer: the pass DAG is rebuilt into it in place so every pass of
/// every block recycles one set of allocations. \p Scratch is the calling
/// thread's weighting workspace (its Governor member, when set, is polled
/// by the weighting kernel). A governor trip or an injected fault returns
/// its single structured BS8xx diagnostic (the caller distinguishes those
/// from certification violations by code).
std::vector<Diagnostic> scheduleBlock(BasicBlock &BB, const Weighter &W,
                                      const PipelineConfig &Config,
                                      PipelineInstruments *Metrics,
                                      WeighterScratch &Scratch, DepDag &Dag,
                                      ResourceGovernor *Gov,
                                      uint64_t PassKey) {
  if (anyFailPointsEnabled()) {
    if (auto D = checkFailPoint(failpoints::DagBuild,
                                failPointMix(PassKey, FaultDagBuild)))
      return {std::move(*D)};
    if (Config.Policy == SchedulerPolicy::Balanced ||
        Config.Policy == SchedulerPolicy::BalancedUnionFind)
      if (auto D = checkFailPoint(failpoints::ClosureAlloc,
                                  failPointMix(PassKey, FaultClosureAlloc)))
        return {std::move(*D)};
    if (auto D = checkFailPoint(failpoints::Weighting,
                                failPointMix(PassKey, FaultWeighting)))
      return {std::move(*D)};
    if (auto D = checkFailPoint(failpoints::Scheduling,
                                failPointMix(PassKey, FaultScheduling)))
      return {std::move(*D)};
  }

  auto Overran = [&] {
    return std::vector<Diagnostic>{Gov->diagnostic("block '" + BB.name() +
                                                   "'")};
  };

  { // Build and weight the pass DAG.
    ScopedSpan Span(Config.Obs.Trace, "dag");
    if (Metrics) {
      Metrics->WeighterBlocks.add();
      if (Scratch.warm())
        Metrics->WeighterScratchReuses.add();
    }
    DagBuildOptions DagOptions = Config.DagOptions;
    DagOptions.Governor = Gov;
    DagAliasStats AliasStats;
    DagOptions.AliasStats = &AliasStats;
    buildDagInto(Dag, BB, DagOptions);
    if (Metrics) {
      Metrics->AliasQueries.add(AliasStats.Queries);
      Metrics->AliasNo.add(AliasStats.NoAlias);
      Metrics->AliasMust.add(AliasStats.MustAlias);
      Metrics->AliasMay.add(AliasStats.MayAlias);
      Metrics->MemEdgesPruned.add(AliasStats.EdgesPruned);
    }
    if (!Gov || !Gov->tripped())
      W.assignWeights(Dag, Scratch);
  }
  if (Gov && Gov->tripped())
    return Overran();
  if (Metrics) {
    Metrics->DagNodes.add(Dag.size());
    uint64_t Edges = 0;
    for (unsigned I = 0; I != Dag.size(); ++I)
      Edges += Dag.succs(I).size();
    Metrics->DagEdges.add(Edges);
  }

  SchedulerOptions SchedOptions = Config.SchedOptions;
  if (!SchedOptions.Metrics)
    SchedOptions.Metrics = Config.Obs.Metrics;
  SchedOptions.Governor = Gov;
  Schedule Sched = [&] {
    ScopedSpan Span(Config.Obs.Trace, "sched");
    return scheduleDag(Dag, SchedOptions);
  }();
  if (Gov && Gov->tripped())
    return Overran();

  if (Config.Certify) {
    ScopedSpan Span(Config.Obs.Trace, "certify");
    if (Metrics)
      Metrics->ScheduleCerts.add();
    if (auto D = checkFailPoint(failpoints::Certify,
                                failPointMix(PassKey, FaultCertify)))
      return {std::move(*D)};
    std::vector<Diagnostic> Violations =
        certifySchedule(BB, Dag, Sched, Config.Ops, SchedOptions);
    if (Gov && Gov->tripped())
      return Overran();
    if (!Violations.empty())
      return Violations;

    // Memory-dependence certificate: every ordering obligation of the
    // block is carried by the DAG the schedule was validated against, so
    // a certified schedule is also safe with respect to pruned edges.
    if (Metrics)
      Metrics->MemDepCerts.add();
    Violations = certifyMemDep(BB, Dag, Config.DagOptions, Gov);
    if (Gov && Gov->tripped())
      return Overran();
    if (!Violations.empty())
      return Violations;
  }
  applySchedule(BB, Dag, Sched);
  return {};
}

/// Compiles block \p BlockIndex of \p F in place through the whole
/// section 4.1 chain: schedule, certify, allocate, rename, certify,
/// reschedule, certify. Returns the block's static spill count, or the
/// diagnostics that abort the compile: failed certificates (wrapped in
/// PipelineCertificationFailed), an injected fault (BS810) or a governor
/// trip (BS80x), the latter two as their single structured diagnostic.
/// Outside its block the chain only reads \p F (its name, and the spill
/// alias class compileUnverified interns up front), so the blocks of one
/// function compile concurrently when each caller brings its own
/// \p Scratch and \p DagArena. \p W is null for NoScheduling.
ErrorOr<unsigned> compileBlock(Function &F, unsigned BlockIndex,
                               const Weighter *W, const PipelineConfig &Config,
                               PipelineInstruments *Metrics,
                               WeighterScratch &Scratch, DepDag &DagArena,
                               ResourceGovernor *Gov, uint64_t FuncKey) {
  BasicBlock &BB = F.block(BlockIndex);
  if (Metrics)
    Metrics->Blocks.add();

  // Per-(block, pass) fail-point keys, derived from kernel content so
  // chaos runs fault identically however cells are distributed. They are
  // only read while a fail point is armed.
  const uint64_t BlockKey =
      failPointMix(FuncKey, failPointMix(BlockIndex, BB.size()));

  auto Overran = [&] {
    return ErrorOr<unsigned>(Gov->diagnostic("block '" + BB.name() + "'"));
  };
  // A structured abort (injected fault or budget overrun) passes through
  // verbatim; certification findings are wrapped.
  auto Failed = [&](const char *Stage, std::vector<Diagnostic> Violations) {
    const DiagCode First = Violations.front().Code;
    if (First == DiagCode::InjectedFault || isBudgetDiagCode(First))
      return ErrorOr<unsigned>(std::move(Violations));
    std::vector<Diagnostic> Diags;
    Diags.push_back({0, 0,
                     std::string(Stage) + " certification failed for block '" +
                         BB.name() + "' of function '" + F.name() + "'",
                     Severity::Error, DiagCode::PipelineCertificationFailed});
    for (Diagnostic &D : Violations)
      Diags.push_back(std::move(D));
    return ErrorOr<unsigned>(std::move(Diags));
  };

  // Pass 1: schedule over virtual registers.
  if (W) {
    std::vector<Diagnostic> Violations =
        scheduleBlock(BB, *W, Config, Metrics, Scratch, DagArena, Gov,
                      failPointMix(BlockKey, 1));
    if (!Violations.empty())
      return Failed("first-pass schedule", std::move(Violations));
  }
  if (!Config.RunRegAlloc)
    return 0u;

  // Register allocation inserts spill code and renames to physical.
  if (auto D = checkFailPoint(failpoints::RegAlloc,
                              failPointMix(BlockKey, FaultRegAlloc)))
    return ErrorOr<unsigned>(std::move(*D));

  // Snapshot the pre-allocation block: the allocation certificate
  // re-executes the rewrite (allocation, then any renaming) against it.
  std::optional<BasicBlock> PreAlloc;
  if (Config.Certify)
    PreAlloc.emplace(BB);

  RegAllocResult Alloc = [&] {
    ScopedSpan Span(Config.Obs.Trace, "regalloc");
    return allocateRegisters(F, BB, Config.Target, Gov);
  }();
  if (Gov && Gov->tripped())
    return Overran();
  const unsigned Spills = Alloc.spillInstructions();
  if (Metrics && Spills != 0)
    Metrics->SpillInstructions.add(Spills);

  // Renaming keeps live-in names, so one certificate covers both rewrites.
  if (Config.RenameAfterAllocation)
    renameRegisters(BB, Config.Target);

  if (Config.Certify) {
    ScopedSpan Span(Config.Obs.Trace, "certify");
    if (Metrics)
      Metrics->AllocationCerts.add();
    if (auto D = checkFailPoint(failpoints::Certify,
                                failPointMix(BlockKey, FaultCertify)))
      return ErrorOr<unsigned>(std::move(*D));
    std::vector<Diagnostic> Violations = certifyAllocation(
        *PreAlloc, BB, Alloc, Config.Target,
        F.getOrCreateAliasClass(SpillAliasClassName), Gov);
    if (Gov && Gov->tripped())
      return Overran();
    if (!Violations.empty())
      return Failed("register-allocation", std::move(Violations));
  }

  // Pass 2: integrate the spill code into the schedule.
  if (W && Config.SecondSchedulingPass) {
    std::vector<Diagnostic> Violations =
        scheduleBlock(BB, *W, Config, Metrics, Scratch, DagArena, Gov,
                      failPointMix(BlockKey, 2));
    if (!Violations.empty())
      return Failed("second-pass schedule", std::move(Violations));
  }
  return Spills;
}

/// The raw two-pass compilation, with no validation of \p Config or
/// verification of \p Input — runPipeline wraps it with both (and owns the
/// governor's admission checks and degradation ladder). Fails with the
/// first failing block's diagnostics (see compileBlock).
ErrorOr<CompiledFunction> compileUnverified(const Function &Input,
                                            const PipelineConfig &Config,
                                            ResourceGovernor *Gov) {
  CompiledFunction Result;
  Result.Compiled = Input;
  Function &F = Result.Compiled;

  std::optional<PipelineInstruments> Instruments;
  if (Config.Obs.Metrics)
    Instruments.emplace(*Config.Obs.Metrics);
  PipelineInstruments *Metrics = Instruments ? &*Instruments : nullptr;
  if (Metrics)
    Metrics->Kernels.add();

  std::string CompileArgs;
  if (Config.Obs.Trace) {
    JsonWriter Args;
    Args.beginObject();
    Args.key("function").value(F.name());
    Args.key("policy").value(policyName(Config.Policy));
    if (!Config.Obs.RequestId.empty())
      Args.key("request_id").value(Config.Obs.RequestId);
    Args.endObject();
    CompileArgs = Args.str();
  }
  ScopedSpan CompileSpan(Config.Obs.Trace, "compile", "pipeline",
                         std::move(CompileArgs));

  std::unique_ptr<Weighter> W = makeWeighter(Config);
  const unsigned NumBlocks = F.numBlocks();

  // The allocator's spill slots share one alias class of the function.
  // Interning it before the first block leaves allocation and its
  // certificate only looking it up, so no block writes outside itself.
  if (Config.RunRegAlloc && NumBlocks != 0)
    F.getOrCreateAliasClass(SpillAliasClassName);

  const bool Chaos = anyFailPointsEnabled();
  const uint64_t FuncKey = Chaos ? functionFaultKey(F) : 0;

  // With a pool (Config.WeighterPool) the blocks compile concurrently,
  // claimed dynamically because their sizes vary widely. Each worker
  // thread keeps one scratch and one DAG arena; which worker compiles
  // which block varies run to run, which is harmless because neither
  // carries state into results. A governed compile stays serial (its tick
  // budget is one single-threaded stream), as does a chaos run (fail-point
  // evaluation counts would grow with the pool). A throwing block is
  // caught here rather than left to parallelForEach, whose fault capture
  // would return a half-compiled function.
  ThreadPool *Pool = Config.WeighterPool;
  const bool Pooled = Pool && Pool->workerCount() > 1 && NumBlocks > 1 &&
                      !Gov && !Chaos;
  std::vector<std::optional<ErrorOr<unsigned>>> PooledSpills;
  std::vector<std::exception_ptr> Thrown;
  if (Pooled) {
    PooledSpills.resize(NumBlocks);
    Thrown.resize(NumBlocks);
    parallelForEach(*Pool, NumBlocks, [&](size_t I) {
      thread_local WeighterScratch WorkerScratch;
      thread_local DepDag WorkerArena;
      try {
        PooledSpills[I].emplace(compileBlock(F, static_cast<unsigned>(I),
                                             W.get(), Config, Metrics,
                                             WorkerScratch, WorkerArena,
                                             /*Gov=*/nullptr, FuncKey));
      } catch (...) {
        Thrown[I] = std::current_exception();
      }
    });
  }

  // A serial compile reuses one weighting workspace and one DAG arena for
  // both passes of every block (all of their state is generation-counted
  // or overwritten, so reuse never changes results).
  WeighterScratch Scratch;
  Scratch.Governor = Gov;
  DepDag DagArena;

  // Fold in block order. The serial loop stops at the first failing block;
  // the pooled path reports the lowest-index failure (or re-raises its
  // exception), so both fail alike, and the totals accumulate in the same
  // order down to the bits of the double sums.
  for (unsigned I = 0; I != NumBlocks; ++I) {
    if (Pooled && Thrown[I])
      std::rethrow_exception(Thrown[I]);
    BSCHED_CHECK(!Pooled || PooledSpills[I], "pooled block task never ran");
    ErrorOr<unsigned> Spills =
        Pooled ? std::move(*PooledSpills[I])
               : compileBlock(F, I, W.get(), Config, Metrics, Scratch,
                              DagArena, Gov, FuncKey);
    if (!Spills)
      return ErrorOr<CompiledFunction>(Spills.errors());
    const BasicBlock &BB = F.block(I);
    Result.SpillPerBlock.push_back(*Spills);
    Result.StaticInstructions += BB.size();
    Result.StaticSpills += *Spills;
    Result.DynamicInstructions += BB.frequency() * BB.size();
    Result.DynamicSpills += BB.frequency() * *Spills;
  }
  return Result;
}

} // namespace

ErrorOr<CompiledFunction> bsched::runPipeline(const Function &Input,
                                              const PipelineConfig &Config) {
  Status ConfigStatus = validatePipelineConfig(Config);
  if (!ConfigStatus.ok())
    return ErrorOr<CompiledFunction>(ConfigStatus.diagnostics());

  std::vector<Diagnostic> InputDiags = verifyFunction(Input);
  if (!verifyClean(InputDiags)) {
    std::vector<Diagnostic> Diags;
    Diags.push_back({0, 0,
                     "input function '" + Input.name() +
                         "' failed verification",
                     Severity::Error, DiagCode::PipelineInvalidInput});
    for (Diagnostic &D : InputDiags)
      Diags.push_back(std::move(D));
    return ErrorOr<CompiledFunction>(std::move(Diags));
  }

  // The allocator maps virtual registers onto the target's, so a kernel
  // that names a physical register would have it silently renumbered. It
  // also binds every live-in to its own general register at block entry,
  // so no class may have more live-ins than general registers.
  if (Config.RunRegAlloc)
    for (const BasicBlock &BB : Input) {
      for (const Instruction &I : BB) {
        Reg Physical = I.hasDest() && I.dest().isPhysical() ? I.dest() : Reg();
        for (Reg R : I.sources())
          if (R.isPhysical())
            Physical = R;
        if (Physical.isValid())
          return ErrorOr<CompiledFunction>(std::vector<Diagnostic>{
              {0, 0,
               "block '" + BB.name() + "' of function '" + Input.name() +
                   "': '" + I.str() + "' names physical register " +
                   Physical.str() +
                   "; register allocation takes virtual registers only",
               Severity::Error, DiagCode::PipelineInvalidInput}});
      }
      unsigned LiveIns[2] = {0, 0}; // [0] = Int, [1] = Fp.
      for (Reg R : blockLiveIns(BB))
        ++LiveIns[R.regClass() == RegClass::Fp ? 1 : 0];
      for (RegClass RC : {RegClass::Int, RegClass::Fp}) {
        const unsigned N = LiveIns[RC == RegClass::Fp ? 1 : 0];
        const unsigned General = Config.Target.generalRegs(RC);
        if (N > General)
          return ErrorOr<CompiledFunction>(std::vector<Diagnostic>{
              {0, 0,
               "block '" + BB.name() + "' of function '" + Input.name() +
                   "' reads " + std::to_string(N) + " " +
                   (RC == RegClass::Fp ? "floating-point" : "integer") +
                   " live-ins, more than the " + std::to_string(General) +
                   " general registers that hold them at block entry",
               Severity::Error, DiagCode::PipelineInvalidInput}});
      }
    }

  MetricRegistry *Reg = Config.Obs.Metrics;
  auto CountFailure = [&](const ErrorOr<CompiledFunction> &Failed) {
    if (!Reg || Failed.has_value() || Failed.errors().empty())
      return;
    DiagCode Code = Failed.errors().front().Code;
    if (isBudgetDiagCode(Code))
      Reg->counter("bsched.governor.budget_failures").add();
    else if (Code == DiagCode::InjectedFault)
      Reg->counter("bsched.governor.injected_faults").add();
  };

  std::optional<ResourceGovernor> GovStorage;
  ResourceGovernor *Gov = nullptr;
  if (Config.Budget.active()) {
    GovStorage.emplace(Config.Budget);
    Gov = &*GovStorage;
    if (Reg)
      Reg->counter("bsched.governor.governed_kernels").add();
  }

  // Admission, before any work: oversized blocks are a hard structured
  // failure (no degradation level changes a block's instruction count).
  if (Gov)
    for (const BasicBlock &BB : Input)
      if (!Gov->admit(BudgetKind::BlockInstructions, BB.size())) {
        ErrorOr<CompiledFunction> Failed(std::vector<Diagnostic>{
            Gov->diagnostic("block '" + BB.name() + "' of function '" +
                            Input.name() + "'")});
        CountFailure(Failed);
        return Failed;
      }

  // The attempt loop: compile, and on an overrun walk the degradation
  // ladder (exact -> union-find Chances, then certify-on -> certify-off)
  // before giving up with the trip's BS80x diagnostic. Each attempt
  // restarts the tick budget; the deadline keeps its original epoch,
  // bounding total wall time across attempts.
  SchedulerPolicy AttemptPolicy = Config.Policy;
  bool AttemptCertify = Config.Certify;
  DegradationLevel Level = DegradationLevel::None;
  CompiledFunction Compiled;
  for (;;) {
    PipelineConfig AttemptConfig = Config;
    AttemptConfig.Policy = AttemptPolicy;
    AttemptConfig.Certify = AttemptCertify;
    if (Gov)
      Gov->beginAttempt();

    std::optional<ScopedSpan> DegradedSpan;
    if (Level != DegradationLevel::None && Config.Obs.Trace) {
      JsonWriter Args;
      Args.beginObject();
      Args.key("function").value(Input.name());
      Args.key("level").value(std::string(degradationName(Level)));
      Args.endObject();
      DegradedSpan.emplace(Config.Obs.Trace, "governor-degraded", "pipeline",
                           Args.str());
    }

    ErrorOr<CompiledFunction> CompiledOr =
        compileUnverified(Input, AttemptConfig, Gov);
    if (Gov && Reg)
      Reg->counter("bsched.governor.ticks").add(Gov->ticks());

    // A rung is tried only when it can change the resource that tripped.
    // Both rungs change the work done (ticks, deadline). Union-find also
    // reschedules the first pass, which moves spill code; certify-off
    // changes nothing the allocator sees. Neither changes the first-pass
    // DAG, which does not depend on the policy, and in a sweep of
    // DAG-edge budgets over the Perfect Club programs union-find never
    // rescued a later pass's DAG either, so a DAG-edge trip fails at once.
    if (Gov && Gov->tripped() && Config.Budget.Degrade) {
      BudgetKind Kind = Gov->trippedKind();
      bool WorkTrip =
          Kind == BudgetKind::Ticks || Kind == BudgetKind::Deadline;
      if (AttemptPolicy == SchedulerPolicy::Balanced &&
          (WorkTrip || Kind == BudgetKind::SpillSlots)) {
        AttemptPolicy = SchedulerPolicy::BalancedUnionFind;
        Level = DegradationLevel::UnionFindChances;
        if (Reg)
          Reg->counter("bsched.governor.degraded_unionfind").add();
        continue;
      }
      if (AttemptCertify && WorkTrip) {
        AttemptCertify = false;
        Level = DegradationLevel::CertifyOff;
        if (Reg)
          Reg->counter("bsched.governor.degraded_certify_off").add();
        continue;
      }
      // No rung left that can help: fall through with the trip diagnostic.
    }

    if (!CompiledOr.has_value()) {
      CountFailure(CompiledOr);
      return CompiledOr;
    }
    Compiled = std::move(*CompiledOr);
    Compiled.Degradation = Level;
    break;
  }

  // A scheduling or allocation defect that corrupts the output is reported
  // as a diagnostic, not silently simulated: the sweep records the kernel
  // as failed and carries on.
  std::vector<Diagnostic> OutputDiags = verifyFunction(Compiled.Compiled);
  if (!verifyClean(OutputDiags)) {
    std::vector<Diagnostic> Diags;
    Diags.push_back({0, 0,
                     "pipeline produced invalid IR for function '" +
                         Input.name() + "'",
                     Severity::Error, DiagCode::PipelineInvalidOutput});
    for (Diagnostic &D : OutputDiags)
      Diags.push_back(std::move(D));
    return ErrorOr<CompiledFunction>(std::move(Diags));
  }
  return Compiled;
}
