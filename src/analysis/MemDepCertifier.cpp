//===- analysis/MemDepCertifier.cpp - Memory-dependence audit -------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "analysis/MemDepCertifier.h"

#include "analysis/Dataflow.h"
#include "dag/Reachability.h"
#include "ir/Interpreter.h"
#include "support/ResourceGovernor.h"

#include <unordered_map>

using namespace bsched;

namespace {

std::string nodeStr(const BasicBlock &BB, unsigned Index) {
  return "instruction " + std::to_string(Index) + " (" + BB[Index].str() +
         ")";
}

//===----------------------------------------------------------------------===
// Independent symbolic re-derivation.
//
// Deliberately *not* analysis/AddressAnalysis.h: values are keyed by their
// def site (instruction index, or the live-in register for values defined
// outside the block) instead of by allocated value numbers, and the pass is
// written against the instruction stream directly. Both analyses must fold
// the same opcode cases — the certifier has to be at least as strong as the
// production analysis to confirm its NoAlias claims — but a bug in one
// symbolic derivation is unlikely to be mirrored by the other. Arithmetic
// on known constants is not an analysis but the interpreter's definition,
// so both evaluate it with the interpreter's ALU (evalIntAlu).
//===----------------------------------------------------------------------===

/// A value as `base + offset (mod 2^64)`, where the base is either the
/// absolute constant origin (IsConst) or the opaque result of a def site /
/// live-in register (Tag).
struct CertVal {
  bool IsConst = false;
  int64_t Tag = 0; ///< Def index, or -(rawBits+1) for live-ins.
  int64_t Off = 0;

  static CertVal constant(int64_t C) { return {true, 0, C}; }
  static CertVal opaque(int64_t Tag) { return {false, Tag, 0}; }

  CertVal displaced(int64_t Delta) const {
    return {IsConst, Tag, evalIntAlu(Opcode::Add, Off, Delta)};
  }
};

/// True when the two address values are provably different words mod 2^64.
bool provablyDifferent(const CertVal &A, const CertVal &B) {
  if (A.IsConst != B.IsConst)
    return false;
  if (A.IsConst || A.Tag == B.Tag)
    return A.Off != B.Off;
  return false;
}

/// Forward substitution over the block prefix; exposes the address value
/// of each memory instruction.
class CertEvaluator {
public:
  explicit CertEvaluator(const BasicBlock &BB, unsigned N) {
    Addrs.resize(N);
    for (unsigned I = 0; I != N; ++I) {
      const Instruction &Instr = BB[I];
      if (Instr.isMemory())
        Addrs[I] = regVal(Instr.addressBase()).displaced(Instr.imm());
      step(Instr, I);
    }
  }

  const CertVal &addressOf(unsigned Index) const { return Addrs[Index]; }

private:
  CertVal regVal(Reg R) {
    auto [It, Inserted] = Vals.try_emplace(R.rawBits());
    if (Inserted)
      It->second =
          CertVal::opaque(-static_cast<int64_t>(R.rawBits()) - 1);
    return It->second;
  }

  void step(const Instruction &I, unsigned Index) {
    if (!I.hasDest() || opcodeDestIsFp(I.opcode()))
      return;
    Vals[I.dest().rawBits()] = derive(I, Index);
  }

  /// The value \p I (at \p Index) defines, from the pre-def state.
  CertVal derive(const Instruction &I, unsigned Index) {
    const Opcode Op = I.opcode();
    const CertVal Opaque = CertVal::opaque(static_cast<int64_t>(Index));
    if (Op == Opcode::LoadImm)
      return CertVal::constant(I.imm());
    if (Op == Opcode::Move)
      return regVal(I.source(0));
    if (!isIntAluOpcode(Op))
      return Opaque; // Load/CvtFI/FSlt stay opaque (keyed by this def site).

    CertVal A = regVal(I.source(0));
    CertVal B = opcodeHasImm(Op) ? CertVal::constant(I.imm())
                                 : regVal(I.source(1));
    if (A.IsConst && B.IsConst)
      return CertVal::constant(evalIntAlu(Op, A.Off, B.Off));
    switch (Op) {
    case Opcode::AddI:
    case Opcode::Add:
      if (B.IsConst)
        return A.displaced(B.Off);
      if (A.IsConst)
        return B.displaced(A.Off);
      break;
    case Opcode::Sub:
      if (B.IsConst)
        return A.displaced(evalIntAlu(Op, 0, B.Off));
      if (A.IsConst == B.IsConst && A.Tag == B.Tag)
        return CertVal::constant(evalIntAlu(Op, A.Off, B.Off));
      break;
    case Opcode::MulI:
      if (I.imm() == 1)
        return A;
      if (I.imm() == 0)
        return CertVal::constant(0);
      break;
    case Opcode::ShlI:
      if ((I.imm() & 63) == 0)
        return A;
      break;
    default:
      break;
    }
    return Opaque;
  }

  std::unordered_map<uint32_t, CertVal> Vals;
  std::vector<CertVal> Addrs;
};

/// The production fact source: the facts the builder used, from a
/// MemoryDependenceAnalysis over the same address model.
class AnalysisFacts final : public MemDepFacts {
public:
  AnalysisFacts(const BasicBlock &BB, AddressModel Model) : MD(BB, Model) {}
  AliasResult alias(unsigned I, unsigned J) const override {
    return MD.alias(I, J);
  }

private:
  MemoryDependenceAnalysis MD;
};

} // namespace

std::vector<Diagnostic> bsched::certifyMemDepAgainst(const BasicBlock &Input,
                                                     const DepDag &Dag,
                                                     const MemDepFacts &Facts,
                                                     ResourceGovernor *Gov) {
  std::vector<Diagnostic> Diags;
  auto Error = [&](DiagCode Code, std::string Message) {
    Diags.push_back({0, 0, std::move(Message), Severity::Error, Code});
  };

  const unsigned N = Dag.size();

  // Obligation 0 (BS730): the DAG mirrors the block — node i is an exact
  // copy of schedulable instruction i. Everything below reasons about the
  // block; this ties the audited DAG to it.
  if (N != Input.schedulableSize()) {
    Error(DiagCode::CertifyMemDepShapeMismatch,
          "DAG has " + std::to_string(N) + " nodes but block '" +
              Input.name() + "' has " +
              std::to_string(Input.schedulableSize()) +
              " schedulable instructions");
    return Diags;
  }
  for (unsigned I = 0; I != N; ++I)
    if (!identicalInstruction(Dag.instruction(I), Input[I])) {
      Error(DiagCode::CertifyMemDepShapeMismatch,
            "DAG node " + std::to_string(I) + " (" +
                Dag.instruction(I).str() + ") does not match input " +
                nodeStr(Input, I));
      return Diags;
    }

  // Obligation 1 (BS733): every memory edge is well formed — it points
  // forward and connects two memory instructions.
  for (unsigned From = 0; From != N; ++From)
    for (const DepEdge &E : Dag.succs(From)) {
      if (E.Kind != DepKind::Memory)
        continue;
      if (E.Other <= From || E.Other >= N)
        Error(DiagCode::CertifyMemDepMalformedEdge,
              "memory edge " + std::to_string(From) + " -> " +
                  std::to_string(E.Other) + " does not point forward");
      else if (!Input[From].isMemory() || !Input[E.Other].isMemory())
        Error(DiagCode::CertifyMemDepMalformedEdge,
              "memory edge " + nodeStr(Input, From) + " -> " +
                  nodeStr(Input, E.Other) +
                  " connects a non-memory instruction");
    }

  // Independent evidence: def-site symbolic substitution plus an
  // interpreter-grade concrete execution of the prefix (the reference
  // Interpreter with its deterministic live-in seeding; addresses are
  // sampled before each instruction executes, so a load defining its own
  // base is handled exactly).
  CertEvaluator Symbolic(Input, N);
  std::vector<int64_t> Concrete(N, 0);
  {
    Interpreter Interp;
    for (unsigned I = 0; I != N; ++I) {
      if (Input[I].isMemory())
        Concrete[I] = Interp.effectiveAddress(Input[I]);
      Interp.step(Input[I]);
    }
  }

  // Obligation 2 (BS731/BS732/BS734): every ordered same-class pair with a
  // store either has a DAG path (any edge kinds — a register dependence
  // orders just as hard) or a NoAlias claim the certifier can verify.
  TransitiveClosure Closure(Dag, /*StorePreds=*/false);
  for (unsigned I = 0; I != N; ++I) {
    if (!Input[I].isMemory())
      continue;
    if (Gov && !Gov->poll())
      return Diags; // Partial; caller must check Gov->tripped().
    for (unsigned J = I + 1; J != N; ++J) {
      if (!Input[J].isMemory() ||
          Input[I].aliasClass() != Input[J].aliasClass())
        continue;
      if (!Input[I].isStore() && !Input[J].isStore())
        continue; // Load/load pairs never need ordering.

      AliasResult Claimed = Facts.alias(I, J);

      // Fact audit, path or not: a definite refutation of a claimed fact
      // is an analysis bug even when a register dependence happens to
      // cover the pair. Both facts speak of every execution, so one
      // concrete run that contradicts either refutes it.
      if (Claimed == AliasResult::NoAlias && Concrete[I] == Concrete[J]) {
        Error(DiagCode::CertifyMemDepFalseNoAlias,
              "claimed no-alias refuted: " + nodeStr(Input, I) + " and " +
                  nodeStr(Input, J) +
                  " address the same word (concrete address " +
                  std::to_string(Concrete[I]) +
                  ") under interpreter semantics");
        continue;
      }
      if (Claimed == AliasResult::MustAlias && Concrete[I] != Concrete[J])
        Error(DiagCode::CertifyMemDepFalseMustAlias,
              "claimed must-alias refuted: " + nodeStr(Input, I) + " and " +
                  nodeStr(Input, J) +
                  " address different words (concrete addresses " +
                  std::to_string(Concrete[I]) + " and " +
                  std::to_string(Concrete[J]) +
                  ") under interpreter semantics");

      if (Closure.reaches(I, J))
        continue; // Ordered by the DAG.

      if (Claimed != AliasResult::NoAlias) {
        Error(DiagCode::CertifyMemDepMissingEdge,
              "missing memory ordering: " + nodeStr(Input, I) + " " +
                  aliasResultName(Claimed) + " " + nodeStr(Input, J) +
                  " but no DAG path orders them");
        continue;
      }
      if (!provablyDifferent(Symbolic.addressOf(I), Symbolic.addressOf(J)))
        Error(DiagCode::CertifyMemDepMissingEdge,
              "unverifiable no-alias: " + nodeStr(Input, I) + " and " +
                  nodeStr(Input, J) +
                  " have no DAG path and the claimed no-alias fact could "
                  "not be re-derived independently");
    }
  }

  return Diags;
}

std::vector<Diagnostic> bsched::certifyMemDep(const BasicBlock &Input,
                                              const DepDag &Dag,
                                              const DagBuildOptions &Options,
                                              ResourceGovernor *Gov) {
  AnalysisFacts Facts(Input, addressModel(Options));
  return certifyMemDepAgainst(Input, Dag, Facts, Gov);
}
