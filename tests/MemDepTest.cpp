//===- tests/MemDepTest.cpp - Symbolic memory-dependence analysis ---------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// Covers the address analysis (analysis/AddressAnalysis.h), its
// load/store classification (analysis/MemDep.h), the DAG builder's
// symbolic pruning, and the memory-dependence certifier — including the
// injected-lying-facts negatives that pin BS730-BS734.
//
//===----------------------------------------------------------------------===//

#include "analysis/AddressAnalysis.h"
#include "analysis/MemDep.h"
#include "analysis/MemDepCertifier.h"
#include "dag/DagBuilder.h"
#include "ir/IrBuilder.h"

#include <gtest/gtest.h>

using namespace bsched;

namespace {

Reg vi(unsigned Id) { return Reg::makeVirtual(RegClass::Int, Id); }

Instruction storeAt(Reg Val, Reg Base, int64_t Off, AliasClassId C) {
  return Instruction::makeStore(Opcode::Store, Val, Base, Off, C);
}
Instruction loadAt(Reg Dst, Reg Base, int64_t Off, AliasClassId C) {
  return Instruction::makeLoad(Opcode::Load, Dst, Base, Off, C);
}

/// Steps \p AA over every instruction of \p BB, returning the address of
/// the memory instruction at \p Index (sampled pre-step, as the analyses
/// do).
SymbolicAddr addressAt(const BasicBlock &BB, unsigned Index) {
  AddressAnalysis AA;
  SymbolicAddr Result;
  for (unsigned I = 0; I != BB.size(); ++I) {
    if (I == Index)
      Result = AA.addressOf(BB[I]);
    AA.step(BB[I]);
  }
  return Result;
}

} // namespace

//===----------------------------------------------------------------------===
// AddressAnalysis: symbolic evaluation
//===----------------------------------------------------------------------===

TEST(AddressAnalysisTest, ConstantBasesFoldThroughRewrites) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 1000));                  // 0
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, vi(1), vi(0), 24));
  BB.append(Instruction::makeUnary(Opcode::Move, vi(2), vi(1)));     // 2
  BB.append(loadAt(vi(3), vi(2), 8, 0));                             // 3
  SymbolicAddr A = addressAt(BB, 3);
  EXPECT_TRUE(A.isConstant());
  EXPECT_EQ(A.Offset, 1032);
}

TEST(AddressAnalysisTest, AffineChainSharesOrigin) {
  // Live-in base walked by += 8: both addresses hang off the same origin
  // at offsets 0 and 8. One analysis instance — origin numbering is
  // per-instance.
  BasicBlock BB("b");
  BB.append(loadAt(vi(1), vi(0), 0, 0));                             // 0
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, vi(0), vi(0), 8));
  BB.append(loadAt(vi(2), vi(0), 0, 0));                             // 2
  AddressAnalysis AA;
  SymbolicAddr A = AA.addressOf(BB[0]);
  AA.step(BB[0]);
  AA.step(BB[1]);
  SymbolicAddr B = AA.addressOf(BB[2]);
  EXPECT_FALSE(A.isConstant());
  EXPECT_EQ(A.Origin, B.Origin);
  EXPECT_EQ(B.Offset - A.Offset, 8);
}

TEST(AddressAnalysisTest, SelfBaseLoadUsesPreDefAddress) {
  // load %i0, [%i0 + 8]: the address uses the *incoming* %i0, and the
  // loaded value is a fresh origin afterwards.
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 64));                    // 0
  BB.append(loadAt(vi(0), vi(0), 8, 0));                             // 1
  BB.append(loadAt(vi(1), vi(0), 0, 0));                             // 2
  SymbolicAddr A = addressAt(BB, 1);
  EXPECT_TRUE(A.isConstant());
  EXPECT_EQ(A.Offset, 72);
  SymbolicAddr B = addressAt(BB, 2);
  EXPECT_FALSE(B.isConstant()); // The loaded value is opaque.
}

TEST(AddressAnalysisTest, SameOriginDifferenceFoldsToConstant) {
  // %i2 = %i1 - %i0 where %i1 = %i0 + 40: the difference is the constant
  // 40, so [%i2 + 0] is an absolute address.
  BasicBlock BB("b");
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, vi(1), vi(0), 40));
  BB.append(Instruction::makeBinary(Opcode::Sub, vi(2), vi(1), vi(0)));
  BB.append(loadAt(vi(3), vi(2), 2, 0));
  SymbolicAddr A = addressAt(BB, 2);
  EXPECT_TRUE(A.isConstant());
  EXPECT_EQ(A.Offset, 42);
}

TEST(AddressAnalysisTest, UnanalyzableDefsGetDistinctOrigins) {
  BasicBlock BB("b");
  BB.append(loadAt(vi(0), vi(9), 0, 0)); // Loaded values are opaque.
  BB.append(loadAt(vi(1), vi(9), 8, 0));
  BB.append(loadAt(vi(2), vi(0), 0, 0)); // 2: base = first loaded value.
  BB.append(loadAt(vi(3), vi(1), 0, 0)); // 3: base = second loaded value.
  SymbolicAddr A = addressAt(BB, 2);
  SymbolicAddr B = addressAt(BB, 3);
  EXPECT_FALSE(A.isConstant());
  EXPECT_FALSE(B.isConstant());
  EXPECT_NE(A.Origin, B.Origin);
}

TEST(AddressAnalysisTest, FoldingOffGivesEveryDefAFreshOrigin) {
  // The syntactic same-base rule: a copy or a bump is a new value, and
  // only accesses through one value of one register share an origin.
  BasicBlock BB("b");
  BB.append(loadAt(vi(1), vi(0), 0, 0));                             // 0
  BB.append(Instruction::makeUnary(Opcode::Move, vi(2), vi(0)));     // 1
  BB.append(loadAt(vi(3), vi(2), 0, 0));                             // 2
  BB.append(loadAt(vi(4), vi(0), 8, 0));                             // 3
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, vi(0), vi(0), 8));
  BB.append(loadAt(vi(5), vi(0), 0, 0));                             // 5
  AddressAnalysis AA(/*Fold=*/false);
  std::vector<SymbolicAddr> Addrs;
  for (const Instruction &I : BB) {
    if (I.isMemory())
      Addrs.push_back(AA.addressOf(I));
    AA.step(I);
  }
  EXPECT_EQ(Addrs[0].Origin, Addrs[2].Origin); // Same value of %i0.
  EXPECT_EQ(Addrs[2].Offset - Addrs[0].Offset, 8);
  EXPECT_NE(Addrs[0].Origin, Addrs[1].Origin); // The copy is not folded.
  EXPECT_NE(Addrs[0].Origin, Addrs[3].Origin); // Nor is the bump.
}

//===----------------------------------------------------------------------===
// Classification and MemoryDependenceAnalysis
//===----------------------------------------------------------------------===

TEST(MemDepTest, ClassifyAddrs) {
  SymbolicAddr C1{0, 100}, C2{0, 108}, O1{5, 0}, O2{5, 8}, P{7, 0};
  EXPECT_EQ(classifyAddrs(C1, C1), AliasResult::MustAlias);
  EXPECT_EQ(classifyAddrs(C1, C2), AliasResult::NoAlias);
  EXPECT_EQ(classifyAddrs(O1, O2), AliasResult::NoAlias);
  EXPECT_EQ(classifyAddrs(O1, O1), AliasResult::MustAlias);
  EXPECT_EQ(classifyAddrs(O1, P), AliasResult::MayAlias);
  EXPECT_EQ(classifyAddrs(C1, O1), AliasResult::MayAlias);
}

TEST(MemDepTest, ClassifiesPairsAndDistances) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 4096));                  // 0
  BB.append(storeAt(vi(7), vi(0), 0, 0));                            // 1
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, vi(0), vi(0), 8));
  BB.append(storeAt(vi(8), vi(0), 0, 0));                            // 3
  BB.append(loadAt(vi(1), vi(0), -8, 0));                            // 4
  BB.append(loadAt(vi(2), vi(0), 0, 1));                             // 5
  MemoryDependenceAnalysis MD(BB);
  EXPECT_TRUE(MD.isMemory(1));
  EXPECT_FALSE(MD.isMemory(2));
  EXPECT_EQ(MD.alias(1, 3), AliasResult::NoAlias);   // 4096 vs 4104.
  EXPECT_EQ(MD.alias(1, 4), AliasResult::MustAlias); // Both 4096.
  EXPECT_EQ(MD.alias(3, 5), AliasResult::NoAlias);   // Distinct classes.
}

//===----------------------------------------------------------------------===
// Certifier: clean paths
//===----------------------------------------------------------------------===

namespace {

/// A block exercising pruning, must-alias chains, base rewrites, and an
/// opaque store.
BasicBlock trickyBlock() {
  BasicBlock BB("tricky");
  BB.append(Instruction::makeLoadImm(vi(0), 1 << 20));
  BB.append(loadAt(vi(1), vi(0), 0, 0));
  BB.append(storeAt(vi(1), vi(0), 8, 0));
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, vi(0), vi(0), 8));
  BB.append(storeAt(vi(1), vi(0), 0, 0)); // Same word as the store above.
  BB.append(loadAt(vi(2), vi(1), 0, 0));  // Opaque base (loaded value).
  BB.append(storeAt(vi(2), vi(1), 4, 1)); // Other class.
  return BB;
}

} // namespace

TEST(MemDepCertifierTest, CertifiesBuiltDagsInBothModes) {
  BasicBlock BB = trickyBlock();
  for (bool Alias : {true, false})
    for (bool Disambiguate : {true, false}) {
      DagBuildOptions Options;
      Options.AliasAnalysis = Alias;
      Options.DisambiguateSameBase = Disambiguate;
      DepDag Dag = buildDag(BB, Options);
      std::vector<Diagnostic> Diags = certifyMemDep(BB, Dag, Options);
      EXPECT_TRUE(Diags.empty())
          << "alias=" << Alias << " disambiguate=" << Disambiguate << ": "
          << joinDiagnostics(Diags);
    }
}

TEST(MemDepCertifierTest, SelfBaseLoadCertifiesInEveryMode) {
  // %i1 is reloaded through itself and the reloaded value points back at
  // the word the load read, so the last store writes it. Every model
  // samples the load's address before the load redefines %i1; a sample
  // after the def claims the load and the last store disjoint (BS732).
  BasicBlock BB("chase");
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, vi(2), vi(1), -8));
  BB.append(storeAt(vi(2), vi(1), 8, 0));
  BB.append(loadAt(vi(1), vi(1), 8, 0));
  BB.append(storeAt(vi(3), vi(1), 16, 0));
  for (bool Alias : {true, false})
    for (bool Disambiguate : {true, false}) {
      DagBuildOptions Options;
      Options.AliasAnalysis = Alias;
      Options.DisambiguateSameBase = Disambiguate;
      MemoryDependenceAnalysis MD(BB, addressModel(Options));
      EXPECT_NE(MD.alias(2, 3), AliasResult::NoAlias)
          << "alias=" << Alias << " disambiguate=" << Disambiguate;
      std::vector<Diagnostic> Diags =
          certifyMemDep(BB, buildDag(BB, Options), Options);
      EXPECT_TRUE(Diags.empty())
          << "alias=" << Alias << " disambiguate=" << Disambiguate << ": "
          << joinDiagnostics(Diags);
    }
}

//===----------------------------------------------------------------------===
// Certifier: negatives pinning BS730-BS734
//===----------------------------------------------------------------------===

namespace {

/// Injectable fact source returning one fixed answer for every pair.
struct ConstantFacts final : MemDepFacts {
  explicit ConstantFacts(AliasResult R) : Answer(R) {}
  AliasResult alias(unsigned, unsigned) const override { return Answer; }
  AliasResult Answer;
};

} // namespace

TEST(MemDepCertifierTest, ShapeMismatchIsBS730) {
  BasicBlock BB = trickyBlock();
  BasicBlock Other("other");
  Other.append(Instruction::makeLoadImm(vi(0), 1));
  DepDag Dag = buildDag(Other);
  std::vector<Diagnostic> Diags = certifyMemDep(BB, Dag, {});
  ASSERT_FALSE(Diags.empty());
  EXPECT_EQ(Diags.front().Code, DiagCode::CertifyMemDepShapeMismatch);
}

TEST(MemDepCertifierTest, MissingEdgeIsBS731) {
  // Two stores through unrelated bases may alias; a DAG with no edges at
  // all carries no ordering for them.
  BasicBlock BB("b");
  BB.append(storeAt(vi(7), vi(0), 0, 0));
  BB.append(storeAt(vi(8), vi(1), 0, 0));
  DepDag Bare(BB);
  std::vector<Diagnostic> Diags = certifyMemDep(BB, Bare, {});
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags.front().Code, DiagCode::CertifyMemDepMissingEdge);
  // The built DAG orders them and certifies cleanly.
  EXPECT_TRUE(certifyMemDep(BB, buildDag(BB), {}).empty());
}

TEST(MemDepCertifierTest, UnverifiableNoAliasClaimIsBS731) {
  // The fact source claims NoAlias for a pair whose addresses the
  // certifier cannot separate (and which differ concretely, so there is
  // no BS732): the omission is still unjustified.
  BasicBlock BB("b");
  BB.append(storeAt(vi(7), vi(0), 0, 0));
  BB.append(storeAt(vi(8), vi(1), 0, 0));
  DepDag Bare(BB);
  ConstantFacts Facts(AliasResult::NoAlias);
  std::vector<Diagnostic> Diags = certifyMemDepAgainst(BB, Bare, Facts);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags.front().Code, DiagCode::CertifyMemDepMissingEdge);
  EXPECT_NE(Diags.front().Message.find("unverifiable"), std::string::npos);
}

TEST(MemDepCertifierTest, FalseNoAliasIsBS732) {
  // Both stores write the same constant word; a NoAlias claim is refuted
  // by the concrete interpreter check.
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 4096));
  BB.append(storeAt(vi(7), vi(0), 0, 0));
  BB.append(storeAt(vi(8), vi(0), 0, 0));
  DepDag Bare(BB);
  ConstantFacts Facts(AliasResult::NoAlias);
  std::vector<Diagnostic> Diags = certifyMemDepAgainst(BB, Bare, Facts);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags.front().Code, DiagCode::CertifyMemDepFalseNoAlias);
}

TEST(MemDepCertifierTest, MalformedMemoryEdgeIsBS733) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 1));
  BB.append(Instruction::makeLoadImm(vi(1), 2));
  DepDag Dag(BB);
  Dag.addEdge(0, 1, DepKind::Memory); // Neither endpoint touches memory.
  std::vector<Diagnostic> Diags = certifyMemDep(BB, Dag, {});
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags.front().Code, DiagCode::CertifyMemDepMalformedEdge);
}

TEST(MemDepCertifierTest, FalseMustAliasIsBS734) {
  // The pair is ordered (so no BS731), but the claimed MustAlias is
  // refuted: the addresses differ by 8.
  BasicBlock BB("b");
  BB.append(storeAt(vi(7), vi(0), 0, 0));
  BB.append(storeAt(vi(8), vi(0), 8, 0));
  DepDag Dag(BB);
  Dag.addEdge(0, 1, DepKind::Memory);
  ConstantFacts Facts(AliasResult::MustAlias);
  std::vector<Diagnostic> Diags = certifyMemDepAgainst(BB, Dag, Facts);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags.front().Code, DiagCode::CertifyMemDepFalseMustAlias);
}

TEST(MemDepCertifierTest, ConcretelyDifferentMustAliasIsBS734) {
  // Unrelated live-in bases: no symbolic argument separates the stores,
  // but the interpreter's run puts them at different words, which refutes
  // a claim that they are the same word in every execution.
  BasicBlock BB("b");
  BB.append(storeAt(vi(7), vi(0), 0, 0));
  BB.append(storeAt(vi(8), vi(1), 0, 0));
  DepDag Dag(BB);
  Dag.addEdge(0, 1, DepKind::Memory);
  ConstantFacts Facts(AliasResult::MustAlias);
  std::vector<Diagnostic> Diags = certifyMemDepAgainst(BB, Dag, Facts);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags.front().Code, DiagCode::CertifyMemDepFalseMustAlias);
  EXPECT_NE(Diags.front().Message.find("concrete addresses"),
            std::string::npos);
}

TEST(MemDepCertifierTest, RegisterPathDischargesObligation) {
  // A data dependence orders the pair just as hard as a memory edge: the
  // load feeds the stored value, so no memory edge is required even
  // though the accesses may alias.
  BasicBlock BB("b");
  BB.append(loadAt(vi(1), vi(0), 0, 0));
  BB.append(storeAt(vi(1), vi(2), 0, 0));
  DepDag Dag(BB);
  Dag.addEdge(0, 1, DepKind::Data);
  EXPECT_TRUE(certifyMemDep(BB, Dag, {}).empty());
}
