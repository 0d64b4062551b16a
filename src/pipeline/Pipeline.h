//===- pipeline/Pipeline.h - The two-pass compile pipeline -----*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's compilation pipeline (section 4.1): per basic block,
///
///   schedule (virtual registers) -> register allocation (+ spill code)
///   -> schedule again (physical registers, false dependences included)
///
/// parameterized by the load-weight policy under study. The second pass
/// integrates spill code into the schedule, exactly as GCC's post-RA pass
/// did, and benefits from the FIFO spill-register pool.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_PIPELINE_PIPELINE_H
#define BSCHED_PIPELINE_PIPELINE_H

#include "dag/DagBuilder.h"
#include "dag/Reachability.h"
#include "ir/Function.h"
#include "obs/Obs.h"
#include "regalloc/LocalRegAlloc.h"
#include "sched/LatencyModel.h"
#include "sched/ListScheduler.h"
#include "support/ErrorOr.h"
#include "support/ResourceGovernor.h"

#include <string>
#include <string_view>
#include <vector>

namespace bsched {

class JsonValue;
class ThreadPool;

/// Which load-weight policy drives both scheduling passes.
enum class SchedulerPolicy {
  Traditional,       ///< Fixed implementation-defined latency.
  Balanced,          ///< Per-load load-level parallelism (the paper).
  BalancedUnionFind, ///< Balanced with the union-find Chances estimate.
  AverageLlp,        ///< Block-average LLP (the paper's rejected variant).
  NoScheduling,      ///< Leave program order (ablation baseline).
};

/// "traditional", "balanced", ...
std::string policyName(SchedulerPolicy Policy);

/// Round-trip inverse of policyName: parses "traditional", "balanced",
/// "balanced-uf", "average-llp" or "unscheduled" (surrounding whitespace
/// ignored). An unknown name comes back as a PipelineUnknownPolicy
/// diagnostic listing the accepted spellings — CLI flag parsing reports it
/// verbatim.
ErrorOr<SchedulerPolicy> parsePolicyName(std::string_view Name);

/// How far the governor's graceful-degradation ladder had to fall for a
/// kernel to fit its ResourceBudget. The ladder is deterministic for
/// deterministic budgets (MaxTicks and the size limits): same input, same
/// budget, same level, bit-identical schedules.
enum class DegradationLevel : uint8_t {
  None,             ///< Compiled exactly as configured.
  UnionFindChances, ///< Exact Chances degraded to the union-find estimate.
  CertifyOff,       ///< Certification also disabled (last resort).
};

/// "none", "union-find-chances", "certify-off".
std::string_view degradationName(DegradationLevel Level);

/// Everything that parameterizes a compilation.
struct PipelineConfig {
  SchedulerPolicy Policy = SchedulerPolicy::Balanced;

  /// Load weight used by the Traditional policy (the paper's "Optimistic
  /// Latency" column: cache-hit time or system mean).
  double OptimisticLatency = 2.0;

  /// Non-load operation latencies (unit in the paper's machine model).
  LatencyModel Ops;

  /// Register files and spill pool.
  TargetDescription Target;

  /// Memory-dependence precision.
  DagBuildOptions DagOptions;

  /// List-scheduler knobs (issue width).
  SchedulerOptions SchedOptions;

  /// Run register allocation (and insert spill code).
  bool RunRegAlloc = true;

  /// Run the post-RA scheduling pass.
  bool SecondSchedulingPass = true;

  /// Honour statically known load latencies in the balanced weighter
  /// (section 6 opt-out). Off = treat every load as uncertain.
  bool HonorKnownLatency = true;

  /// The v1 `closure` object (dag/Reachability.h). It has no effect: the
  /// balanced weighter always uses the row-sweep closure. It is still
  /// serialized, so toJson() is unchanged, but it is not cache-keyed.
  ClosureOptions Closure;

  /// Apply software register renaming between allocation and the second
  /// scheduling pass (the section 4.1 alternative to the FIFO spill
  /// pool): renames defs to maximize register reuse distance, dissolving
  /// WAR/WAW false dependences.
  bool RenameAfterAllocation = false;

  /// Certify every transformation (translation validation): each schedule
  /// is proved to be a dependence- and latency-respecting permutation of
  /// its block, and each allocation to preserve def-use chains modulo
  /// spill code (analysis/ScheduleCertifier.h, AllocationCertifier.h). A
  /// failed certificate aborts the kernel with a
  /// PipelineCertificationFailed diagnostic carrying the violations
  /// instead of emitting miscompiled code. On by default — the cost is a
  /// few linear scans per block (see bench_engine_scaling).
  bool Certify = true;

  /// Per-kernel resource budget (support/ResourceGovernor.h §3i). The
  /// default (all limits zero) is inactive and costs nothing. When active,
  /// the whole compile runs under a ResourceGovernor: every stage loop
  /// polls it, oversized inputs are rejected at admission, and an overrun
  /// surfaces as a structured BS80x diagnostic — or, with Budget.Degrade,
  /// retries the kernel down the deterministic degradation ladder
  /// (exact -> union-find Chances, then certify-on -> certify-off),
  /// recording the level on the result. Budget fields change compiled
  /// output, so they are part of the experiment cache key (unlike Obs).
  ResourceBudget Budget;

  /// Observability sinks (DESIGN.md §3g): when Obs.Metrics is set the
  /// pipeline records `bsched.pipeline.*`, `bsched.dag.*`,
  /// `bsched.sched.*`, `bsched.regalloc.*` and `bsched.analysis.*`
  /// counters; when Obs.Trace is set each kernel gets compile/dag/sched/
  /// regalloc/certify spans. Null members (the default) cost nothing.
  /// Excluded from experiment cache keys — observing a compilation never
  /// changes its result.
  ObsContext Obs;

  /// Optional borrowed worker pool for block-parallel compiles (DESIGN.md
  /// §3h). When set, the pool has more than one worker and the function
  /// more than one block, whole blocks run in parallel: each block's
  /// schedule, allocation, renaming, second schedule and certificates run
  /// on one worker (each worker with its own WeighterScratch and DAG
  /// arena), and the per-block results are folded back in block order, so
  /// the compiled output and statistics are bit-identical to the serial
  /// path. Governed compiles (an active Budget) and compiles with an armed
  /// fail point stay serial. Null (the default) or a one-worker pool keeps
  /// exactly the serial loop. Not part of the compiled result, so excluded
  /// from experiment cache keys; the experiment engine leaves this null (it
  /// already parallelizes across cells).
  ThreadPool *WeighterPool = nullptr;

  //===--------------------------------------------------------------------===
  // Named presets — the configurations the paper's experiments are built
  // from, so harnesses compose them instead of re-deriving knob sets.
  //===--------------------------------------------------------------------===

  /// The paper's baseline machine (section 4): balanced policy, unit op
  /// latencies, MIPS-like register files with the FIFO spill pool, both
  /// scheduling passes. Identical to a default-constructed config; the
  /// name is the documentation.
  static PipelineConfig paperDefault();

  /// Scheduling without register pressure: allocation (and with it all
  /// spill code and false dependences) disabled, so results isolate pure
  /// schedule quality. The "unlimited registers" rows of the ablations.
  static PipelineConfig unlimitedRegisters();

  /// The section 6 superscalar extension: issue width \p Width in the
  /// scheduler (the simulator's ProcessorModel carries its own width).
  static PipelineConfig superscalar(unsigned Width);

  /// Validates the caller-supplied knobs: every numeric field lies in the
  /// range its row of the field list gives (ConfigJson.cpp) — an issue
  /// width of at least 1, an optimistic latency in (0, 1024] under every
  /// policy, op latencies in [1, 1024], at most 1024 registers per class,
  /// a finite deadline of at least 0 — and, with RunRegAlloc, the register
  /// files hold the spill pool. Each violation is a BS500 naming the v1
  /// key. A config that validates round-trips through toJson/fromJson
  /// with identical bytes and cache key. The experiment engine calls this
  /// at entry for every cell.
  Status validate() const;

  //===--------------------------------------------------------------------===
  // Versioned JSON schema (v1) — the one way server requests, CLI
  // `--config` files and experiment harnesses describe a compilation.
  //===--------------------------------------------------------------------===

  /// The current config/wire schema version. Bump only with a migration
  /// path; v1 is pinned by golden round-trip tests.
  static constexpr unsigned SchemaVersion = 1;

  /// Serializes every behavior-affecting knob (plus "schema_version" and
  /// the no-effect `closure` object) as one JSON object in the field
  /// list's order. Obs and WeighterPool are runtime wiring, not
  /// configuration, and are not serialized; the compile cache key excludes
  /// them and Closure.
  std::string toJson() const;

  /// Parses a schema-v1 document produced by toJson() (or written by
  /// hand: every field is optional and defaults to paperDefault()).
  /// Failures are structured diagnostics: BS900 malformed JSON, BS901
  /// unsupported schema_version, BS902 unknown key, BS903 wrong
  /// type/value, BS503 unknown policy. Unknown keys are errors by design —
  /// a misspelled knob must not silently compile with defaults. A value
  /// out of its field's range parses; validate() rejects it.
  static ErrorOr<PipelineConfig> fromJson(std::string_view Json);

  /// Same, over an already-parsed document — the server protocol embeds
  /// a config object inside the request envelope and hands the subtree
  /// here directly.
  static ErrorOr<PipelineConfig> fromJsonValue(const JsonValue &Doc);
};

/// A compiled program plus the statistics the paper's tables report.
struct CompiledFunction {
  Function Compiled;

  /// Static spill instructions per block (same indexing as blocks).
  std::vector<unsigned> SpillPerBlock;

  /// Total static instructions after compilation.
  unsigned StaticInstructions = 0;

  /// Total static spill instructions.
  unsigned StaticSpills = 0;

  /// Frequency-weighted dynamic instruction count (the paper's
  /// TIns/BIns).
  double DynamicInstructions = 0.0;

  /// Frequency-weighted dynamic spill instructions.
  double DynamicSpills = 0.0;

  /// How far the resource governor degraded this kernel to fit its
  /// budget (DegradationLevel::None when no budget was set or none was
  /// needed). Part of the compiled result: sweep comparisons treat two
  /// kernels compiled at different levels as different.
  DegradationLevel Degradation = DegradationLevel::None;

  /// Percentage of executed instructions that are spill code (Table 4).
  double spillPercent() const {
    return DynamicInstructions == 0.0
               ? 0.0
               : 100.0 * DynamicSpills / DynamicInstructions;
  }
};

/// Runs the full pipeline on a copy of \p Input: validates \p Config,
/// verifies \p Input, compiles (certifying every schedule and allocation
/// unless \p Config.Certify is off), then verifies the output. Any failure
/// is returned as diagnostics instead of corrupting or aborting the
/// caller — this is the unit of per-kernel fault isolation in the
/// experiment engine, and the single pipeline entry point.
ErrorOr<CompiledFunction> runPipeline(const Function &Input,
                                      const PipelineConfig &Config);

/// Validates the caller-supplied knobs of \p Config; equivalent to
/// Config.validate().
Status validatePipelineConfig(const PipelineConfig &Config);

} // namespace bsched

#endif // BSCHED_PIPELINE_PIPELINE_H
