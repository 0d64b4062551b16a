//===- tests/FuzzerMain.cpp - Deterministic mutation/round-trip fuzzer ----==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// A seeded fuzz harness over the input-facing layers. Three modes, all
// driven from one support/Rng stream so every failure reproduces from
// (--seed, --iters):
//
//   roundtrip   generate a random straight-line kernel, then require
//               print -> parse -> verify -> interpret to reproduce the
//               original: identical reprint, identical memory image.
//   mutate      byte-mutate a valid printed kernel and feed it to the
//               parser. Any outcome is acceptable except a crash, a
//               sanitizer report, or an accepted function that fails
//               verification.
//   kernel-lang byte-mutate a valid frontend program and feed it to
//               compileKernelLang under the same rules.
//
// Exit code 0 = clean; 1 = a property violation (details on stderr); 2 =
// a bad command line or a malformed BSCHED_FAILPOINTS.
// Registered in ctest under the label "fuzz-smoke"; intended to run under
// BSCHED_SANITIZE=address and =undefined builds.
//
// A fourth mode, never part of "all" (so the seed trio's draws stay
// stable), drives the chaos harness:
//
//   chaos       compile a random kernel under a random resource budget
//               with randomly armed fail points. Any outcome is
//               acceptable except a crash, a hang, a failure without a
//               structured BS80x/BS810 diagnostic, or two identical
//               compiles producing different outcomes.
//   memdep      differential oracle for memory-edge pruning: compile a
//               random (or mutated-and-reparsed) kernel and a random
//               pointer-chase block with the symbolic alias analysis on
//               and off, and require both compiled forms to reproduce the
//               interpreter's memory image for the original program
//               exactly.
//   config      random v1 config documents (dropped, duplicated and
//               unknown keys; wrong types; numbers at the 2^32, 2^53 and
//               2^64 edges and beyond) and random in-code configs. A
//               rejected document must carry only BS900-BS903/BS503, and
//               every config that validates must survive toJson ->
//               fromJson with identical bytes and cache key.
//
// Usage: fuzz_harness [--seed N] [--iters N]
//                     [--mode all|roundtrip|mutate|kernel-lang|chaos|memdep|
//                             config]
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "frontend/KernelLang.h"
#include "ir/Interpreter.h"
#include "ir/IrPrinter.h"
#include "ir/IrVerifier.h"
#include "parser/Parser.h"
#include "pipeline/CompileCache.h"
#include "pipeline/Pipeline.h"
#include "support/FailPoint.h"
#include "support/Json.h"
#include "support/JsonValue.h"
#include "support/Rng.h"
#include "workload/KernelGen.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>

using namespace bsched;

namespace {

//===----------------------------------------------------------------------===//
// Random-program generation
//===----------------------------------------------------------------------===//

/// Builds a random straight-line kernel out of the workload generator's
/// patterns. Always well-formed: generation goes through IrBuilder.
Function makeRandomFunction(Rng &R) {
  Function F("fuzz");
  BasicBlock &BB = F.addBlock("body", 1.0 + static_cast<double>(
                                                R.nextBounded(1000)));
  KernelContext Ctx(F, BB, /*FortranAliasing=*/R.nextBernoulli(0.5),
                    R.nextUInt64());
  unsigned NumPatterns = 1 + static_cast<unsigned>(R.nextBounded(3));
  for (unsigned P = 0; P != NumPatterns; ++P) {
    unsigned Iters = 1 + static_cast<unsigned>(R.nextBounded(4));
    switch (R.nextBounded(8)) {
    case 0:
      emitStencil1D(Ctx, "a", "b", 2 + R.nextBounded(3), Iters);
      break;
    case 1:
      emitStencil2D(Ctx, "g", "h", 4 + R.nextBounded(12), Iters);
      break;
    case 2:
      emitDotProduct(Ctx, "x", "y", "dot", Iters);
      break;
    case 3:
      emitInteraction(Ctx, "pos", "frc", Iters);
      break;
    case 4:
      emitGatherChase(Ctx, "idx", "dat", "acc", Iters);
      break;
    case 5:
      emitExprTree(Ctx, "leaf", "tree", 2 + R.nextBounded(8));
      break;
    case 6:
      emitRecurrence(Ctx, "co", "rec", 1 + R.nextBounded(6));
      break;
    default:
      emitScalarSoup(Ctx, "soup", 1 + R.nextBounded(4),
                     1 + R.nextBounded(4));
      break;
    }
  }
  if (R.nextBernoulli(0.5))
    Ctx.builder().emitRet();
  return F;
}

//===----------------------------------------------------------------------===//
// Mutation
//===----------------------------------------------------------------------===//

/// Characters the mutator may inject: the IR/kernel-lang alphabet plus
/// syntax-significant punctuation, so mutants stay near the grammar.
constexpr char MutationPool[] = "abcdefghijklmnopqrstuvwxyz"
                                "0123456789"
                                "%$@!#{}[]()+-*/=,.;<>_ \t\n";

std::string mutateText(std::string Text, Rng &R) {
  unsigned NumEdits = 1 + static_cast<unsigned>(R.nextBounded(8));
  for (unsigned E = 0; E != NumEdits && !Text.empty(); ++E) {
    size_t At = static_cast<size_t>(R.nextBounded(Text.size()));
    char C = MutationPool[R.nextBounded(sizeof(MutationPool) - 1)];
    switch (R.nextBounded(4)) {
    case 0: // Replace one byte.
      Text[At] = C;
      break;
    case 1: // Delete one byte.
      Text.erase(At, 1);
      break;
    case 2: // Insert one byte.
      Text.insert(At, 1, C);
      break;
    default: { // Duplicate a short chunk elsewhere (token-level chaos).
      size_t Len = 1 + static_cast<size_t>(R.nextBounded(16));
      Len = std::min(Len, Text.size() - At);
      std::string Chunk = Text.substr(At, Len);
      Text.insert(static_cast<size_t>(R.nextBounded(Text.size() + 1)),
                  Chunk);
      break;
    }
    }
  }
  return Text;
}

//===----------------------------------------------------------------------===//
// Properties
//===----------------------------------------------------------------------===//

unsigned Failures = 0;

void fail(uint64_t Iter, const char *Mode, const std::string &Detail,
          const std::string &Input) {
  ++Failures;
  std::fprintf(stderr, "FAIL iter %" PRIu64 " [%s]: %s\n", Iter, Mode,
               Detail.c_str());
  std::fprintf(stderr, "---- input ----\n%s\n---------------\n",
               Input.c_str());
}

/// Pushes an accepted function through the lints (crash-freedom; findings
/// are legitimate) and the certifying pipeline: every schedule must be a
/// dependence- and latency-respecting permutation and every allocation
/// must preserve def-use chains, or the iteration fails. Functions
/// carrying physical registers are skipped — the parser accepts them but
/// physical numbering belongs to the allocator.
void certifyCompile(uint64_t Iter, const char *Mode, const Function &F,
                    const std::string &Input) {
  for (const BasicBlock &BB : F)
    for (const Instruction &I : BB) {
      for (Reg S : I.sources())
        if (S.isValid() && !S.isVirtual())
          return;
      if (I.hasDest() && !I.dest().isVirtual())
        return;
    }
  lintFunction(F);
  ErrorOr<CompiledFunction> Compiled = runPipeline(F, PipelineConfig());
  if (!Compiled.has_value())
    fail(Iter, Mode,
         "certifying pipeline rejected an accepted program: " +
             Compiled.errorText(),
         Input);
}

/// print -> parse -> verify -> interpret must reproduce the generated
/// program exactly.
void runRoundTrip(uint64_t Iter, Rng &R) {
  Function Original = makeRandomFunction(R);
  std::string Printed = printFunction(Original);

  ErrorOr<Function> Reparsed = parseSingleFunction(Printed);
  if (!Reparsed) {
    fail(Iter, "roundtrip", "printed IR failed to reparse: " +
                                Reparsed.errorText(), Printed);
    return;
  }
  if (!verifyClean(verifyFunction(*Reparsed))) {
    fail(Iter, "roundtrip",
         "reparsed IR failed verification: " +
             joinDiagnostics(verifyFunction(*Reparsed)),
         Printed);
    return;
  }
  std::string Reprinted = printFunction(*Reparsed);
  if (Reprinted != Printed) {
    fail(Iter, "roundtrip", "reprint differs:\n" + Reprinted, Printed);
    return;
  }

  // Execution equivalence: same memory image and instruction count.
  Interpreter A, B;
  A.run(Original.block(0));
  B.run(Reparsed->block(0));
  if (A.instructionsExecuted() != B.instructionsExecuted()) {
    fail(Iter, "roundtrip", "instruction counts diverge", Printed);
    return;
  }
  if (A.memoryImage() != B.memoryImage()) {
    fail(Iter, "roundtrip", "memory images diverge after reparse", Printed);
    return;
  }

  certifyCompile(Iter, "roundtrip", Original, Printed);
}

/// Mutated IR text may be rejected, but must never crash the parser, and
/// anything accepted must verify cleanly (the parser runs the verifier).
void runMutate(uint64_t Iter, Rng &R) {
  std::string Mutant = mutateText(printFunction(makeRandomFunction(R)), R);
  ParseResult Result = parseIr(Mutant);
  if (!Result.ok())
    return; // Rejection with diagnostics is a pass.
  for (const Function &F : Result.Functions)
    if (!verifyClean(verifyFunction(F))) {
      fail(Iter, "mutate",
           "parser accepted a function that fails verification: " +
               joinDiagnostics(verifyFunction(F)),
           Mutant);
      return;
    }
  // Accepted programs must also print, interpret, and compile under full
  // certification without incident.
  for (const Function &F : Result.Functions) {
    printFunction(F);
    Interpreter I;
    for (const BasicBlock &BB : F)
      I.run(BB);
    certifyCompile(Iter, "mutate", F, Mutant);
  }
}

/// The frontend seed program the kernel-lang mutator perturbs.
const char *KernelLangSeed = R"(
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
)";

/// Mutated kernel-lang text may be rejected, but must never crash the
/// frontend, and an accepted program must verify cleanly.
void runKernelLang(uint64_t Iter, Rng &R) {
  std::string Mutant = mutateText(KernelLangSeed, R);
  KernelLangResult Result = compileKernelLang(Mutant);
  if (!Result.ok())
    return;
  if (!verifyClean(verifyFunction(*Result.Program))) {
    fail(Iter, "kernel-lang",
         "frontend accepted a program that fails verification: " +
             joinDiagnostics(verifyFunction(*Result.Program)),
         Mutant);
    return;
  }
  certifyCompile(Iter, "kernel-lang", *Result.Program, Mutant);
}

//===----------------------------------------------------------------------===//
// Chaos mode: budgets + injected faults
//===----------------------------------------------------------------------===//

/// Renders one chaos compile for bit-comparison: the degradation level and
/// printed program on success, the joined diagnostics on failure.
std::string chaosOutcome(const ErrorOr<CompiledFunction> &Result) {
  if (Result.has_value())
    return "ok:" + std::string(degradationName(Result->Degradation)) + "\n" +
           printFunction(Result->Compiled);
  return "err:" + joinDiagnostics(Result.errors());
}

/// Compiles a random kernel under a random resource budget with randomly
/// armed fail points. Three properties: no crash or hang, every
/// non-success is a structured BS80x/BS810 diagnostic, and the same
/// (kernel, budget, arming) compiled twice is bit-identical — outcome,
/// degradation level, and schedule.
void runChaos(uint64_t Iter, Rng &R) {
  Function F = makeRandomFunction(R);

  PipelineConfig Config;
  Config.Budget.Degrade = R.nextBernoulli(0.5);
  switch (R.nextBounded(4)) {
  case 0:
    break; // No budget: pure fault injection.
  case 1:
    Config.Budget.MaxTicks = 1 + R.nextBounded(2048);
    break;
  case 2:
    Config.Budget.MaxSpillSlots = 1 + R.nextBounded(4);
    break;
  default:
    Config.Budget.MaxInstructionsPerBlock = 1 + R.nextBounded(64);
    break;
  }

  FailPointRegistry &Registry = FailPointRegistry::instance();
  Registry.disableAll();
  if (R.nextBernoulli(0.75)) {
    const char *Sites[] = {failpoints::DagBuild,   failpoints::ClosureAlloc,
                           failpoints::Weighting,  failpoints::Scheduling,
                           failpoints::RegAlloc,   failpoints::Certify};
    for (const char *Site : Sites)
      if (R.nextBernoulli(0.3))
        Registry.enable(Site, 0.05 + 0.25 * R.nextDouble(), R.nextUInt64());
  }

  std::string Printed = printFunction(F);
  ErrorOr<CompiledFunction> A = runPipeline(F, Config);
  if (!A.has_value()) {
    if (A.errors().empty()) {
      fail(Iter, "chaos", "failure carried no diagnostics", Printed);
    } else {
      DiagCode Code = A.errors().front().Code;
      if (!isBudgetDiagCode(Code) && Code != DiagCode::InjectedFault)
        fail(Iter, "chaos",
             "non-structured failure under chaos: " + A.errorText(),
             Printed);
    }
  }
  ErrorOr<CompiledFunction> B = runPipeline(F, Config);
  if (chaosOutcome(A) != chaosOutcome(B))
    fail(Iter, "chaos", "chaos compile is not deterministic", Printed);
  Registry.disableAll();
}

//===----------------------------------------------------------------------===//
// Memdep mode: differential oracle for memory-edge pruning
//===----------------------------------------------------------------------===//

/// Compiles \p F with the symbolic alias analysis on (the paper default,
/// so every pruned edge is also audited by the memory-dependence
/// certificate) and off, and requires each compiled form to leave exactly
/// the interpreter's memory image for the original program, block by
/// block. Spill traffic is not program memory and is excluded.
void runMemDepDifferential(uint64_t Iter, const Function &F,
                           const std::string &Input) {
  for (bool Alias : {true, false}) {
    PipelineConfig Config;
    Config.DagOptions.AliasAnalysis = Alias;
    ErrorOr<CompiledFunction> Compiled = runPipeline(F, Config);
    const char *Which = Alias ? "memdep(alias on)" : "memdep(alias off)";
    if (!Compiled.has_value()) {
      fail(Iter, Which,
           "certifying pipeline rejected the kernel: " +
               Compiled.errorText(),
           Input);
      continue;
    }
    AliasClassId Spill =
        Compiled->Compiled.getOrCreateAliasClass(SpillAliasClassName);
    for (unsigned B = 0; B != F.numBlocks(); ++B) {
      Interpreter Before, After;
      Before.run(F.block(B));
      After.run(Compiled->Compiled.block(B));
      if (Before.memoryImage() != After.memoryImageExcluding(Spill)) {
        fail(Iter, Which,
             "memory images diverge in block " + std::to_string(B),
             Input);
        return;
      }
    }
  }
}

/// A pointer-chase block: four integer registers seeded by `li` with
/// nearby word addresses, then loads that redefine their own base, `addi`
/// bumps, and stores of those registers, over two alias classes. A load
/// brings back an address an earlier store wrote, so an access through
/// the reloaded base can land on the very word the load read — the pair a
/// base sampled after the load's own def would call disjoint.
Function makePointerChaseFunction(Rng &R) {
  Function F("chase");
  BasicBlock &BB = F.addBlock("chase");
  const AliasClassId Classes[] = {F.getOrCreateAliasClass("p"),
                                  F.getOrCreateAliasClass("q")};
  auto IntReg = [&] {
    return Reg::makeVirtual(RegClass::Int,
                            static_cast<unsigned>(R.nextBounded(4)));
  };
  auto Offset = [&] {
    return 8 * (static_cast<int64_t>(R.nextBounded(5)) - 2);
  };
  for (unsigned Id = 0; Id != 4; ++Id)
    BB.append(Instruction::makeLoadImm(
        Reg::makeVirtual(RegClass::Int, Id),
        1024 + 8 * static_cast<int64_t>(R.nextBounded(4))));
  for (uint64_t S = 0, E = 8 + R.nextBounded(17); S != E; ++S) {
    Reg A = IntReg(), B = IntReg();
    AliasClassId Class = Classes[R.nextBounded(2)];
    switch (R.nextBounded(3)) {
    case 0:
      BB.append(Instruction::makeLoad(Opcode::Load, A, A, Offset(), Class));
      break;
    case 1:
      BB.append(Instruction::makeBinaryImm(Opcode::AddI, A, B, Offset()));
      break;
    default:
      BB.append(Instruction::makeStore(Opcode::Store, B, A, Offset(), Class));
      break;
    }
  }
  return F;
}

/// Every iteration runs the oracle on a pointer-chase block drawn from its
/// own stream, so the draws below stay those the mode always made. Even
/// iterations then run it on a fresh random kernel; odd iterations print
/// one, byte-mutate it, and — when the mutant still parses with only
/// virtual registers — run the oracle on what the parser accepted.
void runMemDep(uint64_t Iter, Rng &R) {
  Rng ChaseStream = R.split(0xC4A5E);
  Function Chase = makePointerChaseFunction(ChaseStream);
  runMemDepDifferential(Iter, Chase, printFunction(Chase));
  if (Iter % 2 == 0) {
    Function F = makeRandomFunction(R);
    runMemDepDifferential(Iter, F, printFunction(F));
    return;
  }
  std::string Mutant = mutateText(printFunction(makeRandomFunction(R)), R);
  ParseResult Result = parseIr(Mutant);
  if (!Result.ok())
    return; // Rejection with diagnostics is a pass.
  for (const Function &F : Result.Functions) {
    // Skip mutants with physical registers (numbering belongs to the
    // allocator) or live-in reads: the interpreter's deterministic
    // default for a register is keyed by its identity, so renaming a
    // live-in legitimately changes the program's result.
    bool Skip = false;
    for (const BasicBlock &BB : F) {
      std::set<uint32_t> Defined;
      for (const Instruction &I : BB) {
        for (Reg S : I.sources())
          Skip |= S.isValid() &&
                  (!S.isVirtual() || !Defined.count(S.rawBits()));
        if (I.hasDest()) {
          Skip |= !I.dest().isVirtual();
          Defined.insert(I.dest().rawBits());
        }
      }
    }
    if (!Skip)
      runMemDepDifferential(Iter, F, Mutant);
  }
}

//===----------------------------------------------------------------------===//
// Config mode: the v1 reader, writer, cache key and range checks
//===----------------------------------------------------------------------===//

/// Number spellings at the edges the reader and the range checks draw.
constexpr const char *EdgeNumbers[] = {
    "0", "1", "2", "-0", "-1", "-3", "0.5", "2.5", "0.1", "1e3", "1024",
    "1025", "1024.5", "4294967294", "4294967295", "4294967296",
    "9007199254740991", "9007199254740992", "9007199254740993",
    "18446744073709551614", "18446744073709551615", "18446744073709551616",
    "1e308", "1e400", "-1e400", "1e-400", "5e-324"};

/// Policy, closure-mode and opcode spellings, valid and not.
constexpr const char *EdgeStrings[] = {
    "balanced",  "traditional", "balanced-uf", "average-llp",
    "unscheduled", " balanced ", "Balanced",   "blanced",
    "auto",      "materialized", "blocked",    "on-demand",
    "ondemand",  "",            "fmul",       "fadd",
    "nosuchop"};

constexpr const char *Containers[] = {"null", "[]", "{}", "[1]",
                                      "{\"k\":1}"};

template <typename T, size_t N> const T &pick(const T (&Pool)[N], Rng &R) {
  return Pool[R.nextBounded(N)];
}

/// Any scalar or small container, mostly of the wrong type for a key.
std::string randomJsonValue(Rng &R) {
  switch (R.nextBounded(6)) {
  case 0:
  case 1:
    return pick(EdgeNumbers, R);
  case 2:
    return JsonWriter::escape(pick(EdgeStrings, R));
  case 3:
    return R.nextBernoulli(0.5) ? "true" : "false";
  case 4:
    return std::to_string(R.nextBounded(4096));
  default:
    return pick(Containers, R);
  }
}

/// A value of the same JSON type as \p Default, often out of range.
std::string sameTypeValue(const JsonValue &Default, Rng &R) {
  if (Default.isBool())
    return R.nextBernoulli(0.5) ? "true" : "false";
  if (Default.isString())
    return JsonWriter::escape(pick(EdgeStrings, R));
  if (R.nextBernoulli(0.5))
    return std::to_string(R.nextBounded(2048));
  return pick(EdgeNumbers, R);
}

/// Writes \p Default (one member's value in the paper-default document)
/// with random mutations: sections may lose, repeat or gain keys, become
/// non-objects, and op_latencies gains random entries.
void writeMutated(JsonWriter &W, std::string_view Key,
                  const JsonValue &Default, Rng &R) {
  if (!Default.isObject()) {
    if (R.nextBernoulli(0.75)) {
      JsonWriter Leaf;
      if (Default.isBool())
        Leaf.value(Default.asBool());
      else if (Default.isString())
        Leaf.value(Default.asString());
      else
        Leaf.value(Default.asNumber());
      W.rawValue(Leaf.str());
    } else {
      W.rawValue(R.nextBernoulli(0.6) ? sameTypeValue(Default, R)
                                      : randomJsonValue(R));
    }
    return;
  }
  if (R.nextBernoulli(0.05)) {
    W.rawValue(randomJsonValue(R));
    return;
  }
  W.beginObject();
  for (const JsonValue::Member &M : Default.members()) {
    if (R.nextBernoulli(0.3))
      continue;
    for (unsigned Copy = R.nextBernoulli(0.05) ? 2 : 1; Copy != 0; --Copy) {
      W.key(M.first);
      writeMutated(W, M.first, M.second, R);
    }
  }
  if (Key == "op_latencies")
    for (unsigned I = R.nextBounded(3); I != 0; --I)
      W.key(pick(EdgeStrings, R))
          .rawValue(R.nextBernoulli(0.7) ? pick(EdgeNumbers, R)
                                         : randomJsonValue(R));
  if (R.nextBernoulli(0.05))
    W.key("unknown_knob").rawValue(randomJsonValue(R));
  W.endObject();
}

/// A config set in code, with values no document can spell (NaN, inf).
PipelineConfig randomConfigInCode(Rng &R) {
  constexpr double Inf = std::numeric_limits<double>::infinity();
  const double Doubles[] = {0.0,    -0.0,   0.5,  1.0,   2.0,    1024.0,
                            1024.5, -3.0,   Inf,  -Inf,  1e-300, 5e-324,
                            1e308,  std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::max()};
  const double Latencies[] = {1.0, 1.5, 4.0, 1024.0, 1025.0, 1e9, Inf};
  const uint64_t Ints[] = {0,           1,
                           4,           26,
                           1024,        1025,
                           4294967295u, (uint64_t(1) << 53) + 1,
                           INT64_MAX,   UINT64_MAX};
  auto U32 = [&] { return static_cast<unsigned>(pick(Ints, R)); };
  PipelineConfig C;
  C.Policy = static_cast<SchedulerPolicy>(R.nextBounded(5));
  C.OptimisticLatency = pick(Doubles, R);
  for (unsigned I = R.nextBounded(3); I != 0; --I)
    C.Ops.setOpLatency(static_cast<Opcode>(R.nextBounded(NumOpcodes)),
                       pick(Latencies, R));
  C.Target.NumIntRegs = R.nextBernoulli(0.5) ? 26 : U32();
  C.Target.NumFpRegs = R.nextBernoulli(0.5) ? 16 : U32();
  C.Target.SpillPoolSize = R.nextBernoulli(0.5) ? 4 : U32();
  C.Target.FifoSpillPool = R.nextBernoulli(0.5);
  C.DagOptions.DisambiguateSameBase = R.nextBernoulli(0.5);
  C.DagOptions.AliasAnalysis = R.nextBernoulli(0.5);
  C.SchedOptions.IssueWidth = R.nextBernoulli(0.5) ? 1 : U32();
  C.Closure.Mode = static_cast<ClosureMode>(R.nextBounded(4));
  C.Closure.OnDemandThreshold = U32();
  C.RunRegAlloc = R.nextBernoulli(0.5);
  C.SecondSchedulingPass = R.nextBernoulli(0.5);
  C.HonorKnownLatency = R.nextBernoulli(0.5);
  C.RenameAfterAllocation = R.nextBernoulli(0.5);
  C.Certify = R.nextBernoulli(0.5);
  C.Budget.DeadlineMs = pick(Doubles, R);
  C.Budget.MaxTicks = pick(Ints, R);
  C.Budget.MaxInstructionsPerBlock = pick(Ints, R);
  C.Budget.MaxDagEdges = pick(Ints, R);
  C.Budget.MaxClosureBits = pick(Ints, R);
  C.Budget.MaxSpillSlots = pick(Ints, R);
  C.Budget.Degrade = R.nextBernoulli(0.5);
  return C;
}

/// Validation failures are BS500; a config that validates must come back
/// from its own document with identical bytes and cache key.
void checkConfigRoundTrip(uint64_t Iter, const PipelineConfig &Config,
                          const std::string &Input) {
  Status Valid = Config.validate();
  for (const Diagnostic &D : Valid.diagnostics())
    if (D.Code != DiagCode::PipelineBadConfig)
      fail(Iter, "config", "validation failure is not BS500: " + D.Message,
           Input);
  if (!Valid.ok())
    return;
  std::string Json = Config.toJson();
  ErrorOr<PipelineConfig> Back = PipelineConfig::fromJson(Json);
  if (!Back) {
    fail(Iter, "config",
         "a valid config's document is rejected: " + Back.errorText(),
         Input + "\n" + Json);
    return;
  }
  if (Back->toJson() != Json)
    fail(Iter, "config", "round trip changed the document",
         Input + "\n" + Json + "\n" + Back->toJson());
  if (configCacheKey(*Back) != configCacheKey(Config))
    fail(Iter, "config", "round trip changed the cache key",
         Input + "\n" + Json);
}

void runConfig(uint64_t Iter, Rng &R) {
  static const JsonValue Default =
      *parseJson(PipelineConfig::paperDefault().toJson());
  JsonWriter W;
  writeMutated(W, "", Default, R);
  const std::string Doc = W.str();

  ErrorOr<PipelineConfig> Parsed = PipelineConfig::fromJson(Doc);
  if (!Parsed) {
    for (const Diagnostic &D : Parsed.errors()) {
      unsigned Code = static_cast<unsigned>(D.Code);
      if ((Code < 900 || Code > 903) &&
          D.Code != DiagCode::PipelineUnknownPolicy)
        fail(Iter, "config",
             "rejection outside BS900-BS903/BS503: " + D.Message, Doc);
    }
  } else {
    checkConfigRoundTrip(Iter, *Parsed, Doc);
  }
  checkConfigRoundTrip(Iter, randomConfigInCode(R), "(config set in code)");
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Seed = 0xB5C0FFEEULL;
  uint64_t Iters = 10000;
  std::string Mode = "all";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--seed") == 0 && I + 1 < argc)
      Seed = std::strtoull(argv[++I], nullptr, 0);
    else if (std::strcmp(argv[I], "--iters") == 0 && I + 1 < argc)
      Iters = std::strtoull(argv[++I], nullptr, 0);
    else if (std::strcmp(argv[I], "--mode") == 0 && I + 1 < argc)
      Mode = argv[++I];
    else {
      std::fprintf(stderr,
                   "usage: %s [--seed N] [--iters N] "
                   "[--mode all|roundtrip|mutate|kernel-lang|chaos|"
                   "memdep|config]\n",
                   argv[0]);
      return 2;
    }
  }
  if (std::string Error = FailPointRegistry::instance().envError();
      !Error.empty()) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }

  Rng Root(Seed);
  for (uint64_t Iter = 0; Iter != Iters; ++Iter) {
    // Each iteration gets its own split stream, so a failure reproduces
    // with --iters <iter+1> without replaying unrelated draws.
    Rng R = Root.split(Iter);
    if (Mode == "roundtrip" || (Mode == "all" && Iter % 3 == 0))
      runRoundTrip(Iter, R);
    else if (Mode == "mutate" || (Mode == "all" && Iter % 3 == 1))
      runMutate(Iter, R);
    else if (Mode == "kernel-lang" || (Mode == "all" && Iter % 3 == 2))
      runKernelLang(Iter, R);
    else if (Mode == "chaos") // Explicit only: "all" stays the seed trio.
      runChaos(Iter, R);
    else if (Mode == "memdep") // Explicit only, like chaos.
      runMemDep(Iter, R);
    else if (Mode == "config") // Explicit only, like chaos.
      runConfig(Iter, R);
    else {
      std::fprintf(stderr, "unknown mode '%s'\n", Mode.c_str());
      return 2;
    }
  }

  if (Failures != 0) {
    std::fprintf(stderr, "%u failure(s) over %" PRIu64 " iterations\n",
                 Failures, Iters);
    return 1;
  }
  std::printf("fuzz: %" PRIu64 " iterations clean (seed 0x%" PRIX64
              ", mode %s)\n",
              Iters, Seed, Mode.c_str());
  return 0;
}
