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

#include "support/FailPoint.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
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
            Reg.counter("bsched.sched.weighter_scratch_reuses")),
        WeighterParallelBlocks(
            Reg.counter("bsched.sched.weighter_parallel_blocks")) {}

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
  /// which worker claims it, so these stay serial-vs-parallel identical.
  Counter AliasQueries;
  Counter AliasNo;
  Counter AliasMust;
  Counter AliasMay;
  Counter MemEdgesPruned;
  /// Per-block weighting runs; WeighterScratchReuses counts the subset
  /// served by an already-warm scratch (the difference is the number of
  /// cold scratch allocations), and WeighterParallelBlocks the subset
  /// weighted by the block-parallel prepass. Scratch-reuse counts depend
  /// on which worker claims which block, so they are the one pipeline
  /// metric exempt from the serial-vs-parallel determinism guarantee when
  /// WeighterPool is set.
  Counter WeighterBlocks;
  Counter WeighterScratchReuses;
  Counter WeighterParallelBlocks;
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

/// Builds and weights the pass DAG of \p BB — the unit the block-parallel
/// prepass fans out. \p Scratch is the calling thread's workspace (its
/// Governor member, when set, is polled by the weighting kernel; \p Gov
/// additionally gates the DAG build).
void buildWeightedDagInto(DepDag &D, BasicBlock &BB, const Weighter &W,
                          const PipelineConfig &Config,
                          PipelineInstruments *Metrics,
                          WeighterScratch &Scratch, ResourceGovernor *Gov) {
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
  buildDagInto(D, BB, DagOptions);
  if (Metrics) {
    Metrics->AliasQueries.add(AliasStats.Queries);
    Metrics->AliasNo.add(AliasStats.NoAlias);
    Metrics->AliasMust.add(AliasStats.MustAlias);
    Metrics->AliasMay.add(AliasStats.MayAlias);
    Metrics->MemEdgesPruned.add(AliasStats.EdgesPruned);
  }
  if (!Gov || !Gov->tripped())
    W.assignWeights(D, Scratch);
}

/// One scheduling pass over \p BB in place. When certifying, the schedule
/// is validated *before* it is applied; on failure the block is left
/// untouched and the violations are returned. \p DagArena is the caller's
/// per-compile DAG buffer: the pass DAG is rebuilt into it in place so
/// every pass of every block recycles one set of allocations. \p Prebuilt,
/// when non-null, is the block's already-weighted pass-1 DAG from the
/// parallel prepass; it is used in place of the arena (and is dead after
/// the call). A governor trip or an injected fault returns its single
/// structured BS8xx diagnostic (the caller distinguishes those from
/// certification violations by code).
std::vector<Diagnostic> scheduleBlock(BasicBlock &BB, const Weighter &W,
                                      const PipelineConfig &Config,
                                      PipelineInstruments *Metrics,
                                      WeighterScratch &Scratch,
                                      DepDag &DagArena,
                                      ResourceGovernor *Gov,
                                      uint64_t PassKey,
                                      DepDag *Prebuilt = nullptr) {
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

  if (!Prebuilt)
    buildWeightedDagInto(DagArena, BB, W, Config, Metrics, Scratch, Gov);
  DepDag &Dag = Prebuilt ? *Prebuilt : DagArena;
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

/// True when \p Diags is a structured abort (injected fault or budget
/// overrun) rather than a certification finding: passed through verbatim
/// instead of being wrapped in PipelineCertificationFailed.
bool isStructuredAbort(const std::vector<Diagnostic> &Diags) {
  return !Diags.empty() && (Diags.front().Code == DiagCode::InjectedFault ||
                            isBudgetDiagCode(Diags.front().Code));
}

/// The raw two-pass compilation, with no validation of \p Config or
/// verification of \p Input — runPipeline wraps it with both (and owns the
/// governor's admission checks and degradation ladder). Failure modes:
/// failed certificates (wrapped in PipelineCertificationFailed), injected
/// faults (BS810) and governor trips (BS80x) — the latter two returned as
/// their single structured diagnostic.
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

  // One weighting workspace per compile: pass-1 and pass-2 weighting of
  // every block reuse the same buffers (WeighterScratch is all
  // generation-counted or overwritten state, so reuse never changes
  // results).
  WeighterScratch Scratch;
  Scratch.Governor = Gov;

  // One DAG arena per compile: each serial scheduling pass rebuilds its
  // DAG into this buffer (DepDag::rebuild recycles the planes and edge
  // arrays). Parallel-prepass DAGs necessarily live in their own storage.
  DepDag DagArena;

  const bool Chaos = anyFailPointsEnabled();
  const uint64_t FuncKey = Chaos ? functionFaultKey(F) : 0;

  // Block-parallel pass-1 weighting (opt-in via Config.WeighterPool): the
  // pass-1 DAG of a block is a pure function of that block — nothing
  // scheduled, allocated, or renamed in an earlier block can change it —
  // so all blocks build and weight concurrently. The fold back is
  // deterministic: results land at their block's slot and the serial loop
  // below consumes them in block order, making the compiled function
  // bit-identical to the serial path. A governed compile stays serial (the
  // governor's tick stream is single-threaded by design), as does a chaos
  // run (fault sites are checked on the serial path).
  std::vector<std::optional<DepDag>> PreDags;
  ThreadPool *Pool = Config.WeighterPool;
  if (W && Pool && Pool->workerCount() > 1 && F.numBlocks() > 1 && !Gov &&
      !Chaos) {
    ScopedSpan Span(Config.Obs.Trace, "parallel-weight");
    PreDags.resize(F.numBlocks());
    parallelForEach(*Pool, F.numBlocks(), [&](size_t BlockIndex) {
      // Workers keep a long-lived scratch each; blocks are claimed
      // dynamically, so which scratch serves which block varies run to
      // run — harmless, since scratch state never leaks into results.
      thread_local WeighterScratch WorkerScratch;
      if (Metrics)
        Metrics->WeighterParallelBlocks.add();
      buildWeightedDagInto(PreDags[BlockIndex].emplace(),
                           F.block(static_cast<unsigned>(BlockIndex)), *W,
                           Config, Metrics, WorkerScratch,
                           /*Gov=*/nullptr);
    });
  }

  auto CertFailed = [&](const BasicBlock &BB, const char *Stage,
                        std::vector<Diagnostic> Violations) {
    std::vector<Diagnostic> Diags;
    Diags.push_back({0, 0,
                     std::string(Stage) + " certification failed for block '" +
                         BB.name() + "' of function '" + F.name() + "'",
                     Severity::Error, DiagCode::PipelineCertificationFailed});
    for (Diagnostic &D : Violations)
      Diags.push_back(std::move(D));
    return ErrorOr<CompiledFunction>(std::move(Diags));
  };

  unsigned BlockIndex = 0;
  for (BasicBlock &BB : F) {
    if (Metrics)
      Metrics->Blocks.add();

    // Per-(block, pass) fail-point keys, derived from kernel content so
    // chaos runs fault identically however cells are distributed.
    uint64_t BlockKey =
        Chaos ? failPointMix(FuncKey, failPointMix(BlockIndex, BB.size()))
              : 0;
    uint64_t Pass1Key = Chaos ? failPointMix(BlockKey, 1) : 0;
    uint64_t Pass2Key = Chaos ? failPointMix(BlockKey, 2) : 0;

    auto Overran = [&] {
      return ErrorOr<CompiledFunction>(std::vector<Diagnostic>{
          Gov->diagnostic("block '" + BB.name() + "'")});
    };

    // Pass 1: schedule over virtual registers (consuming the prepass DAG
    // when one was built).
    if (W) {
      DepDag *Prebuilt = BlockIndex < PreDags.size() && PreDags[BlockIndex]
                             ? &*PreDags[BlockIndex]
                             : nullptr;
      std::vector<Diagnostic> Violations =
          scheduleBlock(BB, *W, Config, Metrics, Scratch, DagArena, Gov,
                        Pass1Key, Prebuilt);
      if (!Violations.empty())
        return isStructuredAbort(Violations)
                   ? ErrorOr<CompiledFunction>(std::move(Violations))
                   : CertFailed(BB, "first-pass schedule",
                                std::move(Violations));
    }

    // Register allocation inserts spill code and renames to physical.
    unsigned Spills = 0;
    if (Config.RunRegAlloc) {
      if (auto D = checkFailPoint(failpoints::RegAlloc,
                                  failPointMix(BlockKey, FaultRegAlloc)))
        return ErrorOr<CompiledFunction>(
            std::vector<Diagnostic>{std::move(*D)});

      // Snapshot the pre-allocation block: the allocation certificate
      // re-executes the rewrite against it.
      std::optional<BasicBlock> PreAlloc;
      if (Config.Certify)
        PreAlloc.emplace(BB);

      RegAllocResult Alloc = [&] {
        ScopedSpan Span(Config.Obs.Trace, "regalloc");
        return allocateRegisters(F, BB, Config.Target, Gov);
      }();
      if (Gov && Gov->tripped())
        return Overran();
      Spills = Alloc.spillInstructions();
      if (Metrics && Spills != 0)
        Metrics->SpillInstructions.add(Spills);

      if (Config.Certify) {
        ScopedSpan Span(Config.Obs.Trace, "certify");
        if (Metrics)
          Metrics->AllocationCerts.add();
        if (auto D = checkFailPoint(failpoints::Certify,
                                    failPointMix(BlockKey, FaultCertify)))
          return ErrorOr<CompiledFunction>(
              std::vector<Diagnostic>{std::move(*D)});
        std::vector<Diagnostic> Violations = certifyAllocation(
            *PreAlloc, BB, Alloc, Config.Target,
            F.getOrCreateAliasClass(SpillAliasClassName), Gov);
        if (Gov && Gov->tripped())
          return Overran();
        if (!Violations.empty())
          return CertFailed(BB, "register-allocation",
                            std::move(Violations));
      }

      // Renaming rewrites physical registers wholesale, so it runs after
      // the allocation certificate; the reordered result is still covered
      // by the second-pass schedule certificate below.
      if (Config.RenameAfterAllocation)
        renameRegisters(BB, Config.Target);

      // Pass 2: integrate the spill code into the schedule. Always serial:
      // the DAG depends on the spill code allocation just produced.
      if (W && Config.SecondSchedulingPass) {
        std::vector<Diagnostic> Violations =
            scheduleBlock(BB, *W, Config, Metrics, Scratch, DagArena, Gov,
                          Pass2Key);
        if (!Violations.empty())
          return isStructuredAbort(Violations)
                     ? ErrorOr<CompiledFunction>(std::move(Violations))
                     : CertFailed(BB, "second-pass schedule",
                                  std::move(Violations));
      }
    }
    ++BlockIndex;
    Result.SpillPerBlock.push_back(Spills);

    Result.StaticInstructions += BB.size();
    Result.StaticSpills += Spills;
    Result.DynamicInstructions += BB.frequency() * BB.size();
    Result.DynamicSpills += BB.frequency() * Spills;
  }
  return Result;
}

} // namespace

Status bsched::validatePipelineConfig(const PipelineConfig &Config) {
  std::vector<Diagnostic> Diags;
  auto BadConfig = [&](std::string Message) {
    Diags.push_back({0, 0, std::move(Message), Severity::Error,
                     DiagCode::PipelineBadConfig});
  };

  if (Config.SchedOptions.IssueWidth == 0)
    BadConfig("issue width must be at least 1");
  if (Config.Policy == SchedulerPolicy::Traditional &&
      Config.OptimisticLatency <= 0.0)
    BadConfig("optimistic latency must be positive, got " +
              std::to_string(Config.OptimisticLatency));

  // Caps far above any real machine, which keep one request from holding
  // a worker or the heap: the list scheduler steps one slot at a time up
  // to a load's weight, and the allocator sizes its tables by register
  // count.
  constexpr double MaxLatencyCycles = 1024.0;
  constexpr unsigned MaxRegistersPerClass = 1024;
  auto CheckLatency = [&](std::string_view What, double Cycles) {
    if (!std::isfinite(Cycles) || Cycles > MaxLatencyCycles)
      BadConfig(std::string(What) + " must be at most 1024 cycles, got " +
                std::to_string(Cycles));
  };
  CheckLatency("optimistic latency", Config.OptimisticLatency);
  for (unsigned Op = 0; Op != NumOpcodes; ++Op)
    CheckLatency(std::string(opcodeName(static_cast<Opcode>(Op))) +
                     " latency",
                 Config.Ops.opLatency(static_cast<Opcode>(Op)));
  if (Config.Target.NumIntRegs > MaxRegistersPerClass ||
      Config.Target.NumFpRegs > MaxRegistersPerClass)
    BadConfig("register files are capped at 1024 registers per class, got " +
              std::to_string(Config.Target.NumIntRegs) + " integer and " +
              std::to_string(Config.Target.NumFpRegs) + " floating-point");

  if (Config.RunRegAlloc) {
    // generalRegs() needs Total > Reserved + 2 per class; the integer
    // class additionally reserves the frame pointer.
    unsigned IntReserved = Config.Target.SpillPoolSize + 1;
    unsigned FpReserved = Config.Target.SpillPoolSize;
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
  // failure (no degradation level changes a block's instruction count),
  // while an over-budget exact-Chances closure degrades up front when
  // degradation is allowed.
  SchedulerPolicy AttemptPolicy = Config.Policy;
  bool AttemptCertify = Config.Certify;
  DegradationLevel Level = DegradationLevel::None;
  if (Gov) {
    for (const BasicBlock &BB : Input)
      if (!Gov->admit(BudgetKind::BlockInstructions, BB.size())) {
        ErrorOr<CompiledFunction> Failed(std::vector<Diagnostic>{
            Gov->diagnostic("block '" + BB.name() + "' of function '" +
                            Input.name() + "'")});
        CountFailure(Failed);
        return Failed;
      }

    if (AttemptPolicy == SchedulerPolicy::Balanced &&
        Config.Budget.MaxClosureBits != 0) {
      uint64_t WorstBits = 0;
      for (const BasicBlock &BB : Input)
        WorstBits = std::max(WorstBits,
                             ResourceBudget::closureBitsFor(BB.size()));
      if (WorstBits > Config.Budget.MaxClosureBits) {
        if (!Config.Budget.Degrade) {
          Gov->admit(BudgetKind::ClosureBits, WorstBits); // Trips.
          ErrorOr<CompiledFunction> Failed(std::vector<Diagnostic>{
              Gov->diagnostic("function '" + Input.name() + "'")});
          CountFailure(Failed);
          return Failed;
        }
        AttemptPolicy = SchedulerPolicy::BalancedUnionFind;
        Level = DegradationLevel::UnionFindChances;
        if (Reg)
          Reg->counter("bsched.governor.degraded_unionfind").add();
      }
    }
  }

  // The attempt loop: compile, and on a deterministic-or-deadline overrun
  // walk the degradation ladder (exact -> union-find Chances, then
  // certify-on -> certify-off) before giving up with the trip's BS80x
  // diagnostic. Each attempt restarts the tick budget; the deadline keeps
  // its original epoch, bounding total wall time across attempts.
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

    if (Gov && Gov->tripped() && Config.Budget.Degrade) {
      if (AttemptPolicy == SchedulerPolicy::Balanced) {
        AttemptPolicy = SchedulerPolicy::BalancedUnionFind;
        Level = DegradationLevel::UnionFindChances;
        if (Reg)
          Reg->counter("bsched.governor.degraded_unionfind").add();
        continue;
      }
      if (AttemptCertify) {
        AttemptCertify = false;
        Level = DegradationLevel::CertifyOff;
        if (Reg)
          Reg->counter("bsched.governor.degraded_certify_off").add();
        continue;
      }
      // Ladder exhausted: fall through with the trip diagnostic.
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
