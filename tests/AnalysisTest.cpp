//===- tests/AnalysisTest.cpp - Dataflow framework + lint tests -----------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "analysis/AddressAnalysis.h"
#include "analysis/Dataflow.h"
#include "analysis/Lint.h"
#include "ir/Interpreter.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

#include <limits>

using namespace bsched;

namespace {

Function parse(const char *Source) {
  ParseResult Result = parseIr(Source);
  EXPECT_TRUE(Result.ok()) << "parse failed: "
                           << (Result.Diags.empty()
                                   ? "?"
                                   : Result.Diags.front().str());
  return std::move(Result.Functions.front());
}

unsigned countCode(const std::vector<Diagnostic> &Diags, DiagCode Code) {
  unsigned N = 0;
  for (const Diagnostic &D : Diags)
    N += D.Code == Code;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===
// Reaching definitions
//===----------------------------------------------------------------------===

TEST(DataflowTest, ReachingDefsTrackSourcesAndKills) {
  Function F = parse(R"(
func @f {
block body freq 1 {
  %i0 = li 1
  %i1 = addi %i0, 2
  %i0 = addi %i1, 3
  %i2 = add %i0, %i9
  ret
}
}
)");
  const BasicBlock &BB = F.block(0);
  ReachingDefsResult Defs = computeReachingDefs(BB);

  EXPECT_EQ(Defs.sourceDef(1, 0), 0);  // %i0 in instr 1 comes from instr 0.
  EXPECT_EQ(Defs.sourceDef(2, 0), 1);  // %i1 from instr 1.
  EXPECT_EQ(Defs.sourceDef(3, 0), 2);  // %i0 redefined by instr 2.
  EXPECT_EQ(Defs.sourceDef(3, 1), ReachingLiveIn); // %i9 is a live-in.
  EXPECT_EQ(Defs.KilledDef[2], 0);     // Instr 2 kills instr 0's %i0.
  EXPECT_EQ(Defs.KilledDef[0], ReachingLiveIn); // First defs kill nothing.
  EXPECT_EQ(Defs.KilledDef[1], ReachingLiveIn);
}

//===----------------------------------------------------------------------===
// Liveness
//===----------------------------------------------------------------------===

TEST(DataflowTest, LivenessLiveInAndLiveAfter) {
  Function F = parse(R"(
func @f {
block body freq 1 {
  %i1 = addi %i0, 1
  %i2 = add %i1, %i0
  store %i2, [%i9 + 0] !a
  ret
}
}
)");
  const BasicBlock &BB = F.block(0);
  LivenessResult Live = computeLiveness(BB);

  Reg I0 = Reg::makeVirtual(RegClass::Int, 0);
  Reg I1 = Reg::makeVirtual(RegClass::Int, 1);
  Reg I2 = Reg::makeVirtual(RegClass::Int, 2);
  Reg I9 = Reg::makeVirtual(RegClass::Int, 9);

  EXPECT_TRUE(Live.isLiveIn(I0));
  EXPECT_TRUE(Live.isLiveIn(I9));
  EXPECT_FALSE(Live.isLiveIn(I1));

  EXPECT_TRUE(Live.isLiveAfter(0, I0));  // %i0 read again by instr 1.
  EXPECT_TRUE(Live.isLiveAfter(0, I1));
  EXPECT_FALSE(Live.isLiveAfter(1, I1)); // Last read of %i1 was instr 1.
  EXPECT_TRUE(Live.isLiveAfter(1, I2));
  EXPECT_FALSE(Live.isLiveAfter(2, I2)); // Dead after the store.
}

TEST(DataflowTest, IdenticalInstructionDiscriminates) {
  Function F = parse(R"(
func @f {
block body freq 1 {
  %i0 = li 1
  %i0 = li 1
  %i0 = li 2
  %i1 = li 1
  ret
}
}
)");
  const BasicBlock &BB = F.block(0);
  EXPECT_TRUE(identicalInstruction(BB[0], BB[1]));
  EXPECT_FALSE(identicalInstruction(BB[0], BB[2])); // Different immediate.
  EXPECT_FALSE(identicalInstruction(BB[0], BB[3])); // Different dest.
  EXPECT_FALSE(identicalInstruction(BB[0], BB[4])); // li vs ret.
}

//===----------------------------------------------------------------------===
// Lint: use-before-def (BS700)
//===----------------------------------------------------------------------===

TEST(LintTest, ReportsLiveInReadsOncePerRegister) {
  Function F = parse(R"(
func @f {
block body freq 1 {
  %i1 = addi %i0, 1
  %i2 = add %i0, %i0
  store %i2, [%i1 + 0] !a
  ret
}
}
)");
  std::vector<Diagnostic> Diags = lintFunction(F);
  // %i0 is read three times but reported once, at its first use.
  EXPECT_EQ(countCode(Diags, DiagCode::LintUseBeforeDef), 1u);
}

TEST(LintTest, CleanSelfContainedBlockHasNoUseBeforeDef) {
  Function F = parse(R"(
func @f {
block body freq 1 {
  %i0 = li 8
  %i1 = addi %i0, 1
  store %i1, [%i0 + 0] !a
  ret
}
}
)");
  EXPECT_EQ(countCode(lintFunction(F), DiagCode::LintUseBeforeDef), 0u);
}

//===----------------------------------------------------------------------===
// Lint: dead values (BS701)
//===----------------------------------------------------------------------===

TEST(LintTest, ReportsDeadDefinitions) {
  Function F = parse(R"(
func @f {
block body freq 1 {
  %i0 = li 8
  %i1 = li 9
  %i2 = addi %i0, 1
  store %i2, [%i0 + 0] !a
  ret
}
}
)");
  std::vector<Diagnostic> Diags = lintFunction(F);
  ASSERT_EQ(countCode(Diags, DiagCode::LintDeadValue), 1u);
  // The finding names %i1 (never read); overwritten-then-read values and
  // stored values are not dead.
  for (const Diagnostic &D : Diags) {
    if (D.Code == DiagCode::LintDeadValue) {
      EXPECT_NE(D.Message.find("%i1"), std::string::npos) << D.Message;
    }
  }
}

TEST(LintTest, RedefinitionMakesEarlierDefDead) {
  Function F = parse(R"(
func @f {
block body freq 1 {
  %i0 = li 8
  %i0 = li 9
  store %i0, [%i0 + 0] !a
  ret
}
}
)");
  EXPECT_EQ(countCode(lintFunction(F), DiagCode::LintDeadValue), 1u);
}

//===----------------------------------------------------------------------===
// Lint: redundant loads (BS702)
//===----------------------------------------------------------------------===

TEST(LintTest, ReportsReloadOfSameLocation) {
  Function F = parse(R"(
func @f {
block body freq 1 {
  %i0 = li 4096
  %i1 = load [%i0 + 0] !a
  %i2 = load [%i0 + 0] !a
  %i3 = add %i1, %i2
  store %i3, [%i0 + 8] !b
  ret
}
}
)");
  EXPECT_EQ(countCode(lintFunction(F), DiagCode::LintRedundantLoad), 1u);
}

TEST(LintTest, InterveningStoreKillsAvailability) {
  Function F = parse(R"(
func @f {
block body freq 1 {
  %i0 = li 4096
  %i1 = load [%i0 + 0] !a
  store %i1, [%i0 + 0] !a
  %i2 = load [%i0 + 0] !a
  %i3 = add %i1, %i2
  store %i3, [%i0 + 8] !b
  ret
}
}
)");
  // The store to the same location forwards its value: the reload is still
  // redundant (it reads what was just stored).
  EXPECT_EQ(countCode(lintFunction(F), DiagCode::LintRedundantLoad), 1u);

  Function G = parse(R"(
func @g {
block body freq 1 {
  %i0 = li 4096
  %i9 = li 7
  %i1 = load [%i0 + 0] !a
  store %i9, [%i0 + 16] !a
  %i2 = load [%i0 + 0] !a
  %i3 = add %i1, %i2
  store %i3, [%i0 + 8] !b
  ret
}
}
)");
  // Same base, different offset: provably disjoint, so the first load is
  // still available and the reload redundant.
  EXPECT_EQ(countCode(lintFunction(G), DiagCode::LintRedundantLoad), 1u);
}

TEST(LintTest, AliasedStoreOrBaseRedefinitionSuppressesFinding) {
  Function F = parse(R"(
func @f {
block body freq 1 {
  %i0 = li 4096
  %i9 = li 7
  %i1 = load [%i0 + 0] !a
  store %i9, [%i9 + 16] !a
  %i2 = load [%i0 + 0] !a
  %i3 = add %i1, %i2
  store %i3, [%i0 + 8] !b
  ret
}
}
)");
  // The store goes through a different base in the same class: it may
  // alias the loaded location, so the reload is not flagged.
  EXPECT_EQ(countCode(lintFunction(F), DiagCode::LintRedundantLoad), 0u);

  Function G = parse(R"(
func @g {
block body freq 1 {
  %i0 = li 4096
  %i1 = load [%i0 + 0] !a
  %i0 = addi %i0, 8
  %i2 = load [%i0 + 0] !a
  %i3 = add %i1, %i2
  store %i3, [%i0 + 8] !b
  ret
}
}
)");
  // The base register was redefined between the loads: same textual
  // address, different value, no finding.
  EXPECT_EQ(countCode(lintFunction(G), DiagCode::LintRedundantLoad), 0u);
}

TEST(LintTest, OptionsDisableIndividualAnalyses) {
  Function F = parse(R"(
func @f {
block body freq 1 {
  %i1 = addi %i0, 1
  %i2 = load [%i0 + 0] !a
  %i3 = load [%i0 + 0] !a
  ret
}
}
)");
  LintOptions Options;
  Options.WarnUseBeforeDef = false;
  Options.WarnDeadValue = false;
  Options.WarnRedundantLoad = false;
  EXPECT_TRUE(lintFunction(F, Options).empty());

  Options.WarnRedundantLoad = true;
  std::vector<Diagnostic> Diags = lintFunction(F, Options);
  EXPECT_EQ(Diags.size(), countCode(Diags, DiagCode::LintRedundantLoad));
}

TEST(LintTest, FindingsAreWarnings) {
  Function F = parse(R"(
func @f {
block body freq 1 {
  %i1 = addi %i0, 1
  ret
}
}
)");
  for (const Diagnostic &D : lintFunction(F))
    EXPECT_EQ(D.Sev, Severity::Warning);
}

//===----------------------------------------------------------------------===
// One integer ALU: the address analysis folds what the interpreter computes
//===----------------------------------------------------------------------===

// Every integer ALU opcode over an edge grid (0, +-1, the extremes, shift
// counts 63/64/65; the divisors 0 and -1 are in it): two `li` constants
// fold to exactly the value the interpreter computes for the block.
TEST(IntAluTest, AddressAnalysisFoldsConstantsAsTheInterpreterComputes) {
  const std::vector<int64_t> Grid = {0,
                                     1,
                                     -1,
                                     std::numeric_limits<int64_t>::min(),
                                     std::numeric_limits<int64_t>::max(),
                                     63,
                                     64,
                                     65};
  const Reg A = Reg::makeVirtual(RegClass::Int, 0);
  const Reg B = Reg::makeVirtual(RegClass::Int, 1);
  const Reg D = Reg::makeVirtual(RegClass::Int, 2);
  unsigned Checked = 0;
  for (unsigned OpIndex = 0; OpIndex != NumOpcodes; ++OpIndex) {
    const Opcode Op = static_cast<Opcode>(OpIndex);
    if (!isIntAluOpcode(Op))
      continue;
    for (int64_t X : Grid)
      for (int64_t Y : Grid) {
        BasicBlock BB("b");
        BB.append(Instruction::makeLoadImm(A, X));
        BB.append(Instruction::makeLoadImm(B, Y));
        BB.append(opcodeHasImm(Op)
                      ? Instruction::makeBinaryImm(Op, D, A, Y)
                      : Instruction::makeBinary(Op, D, A, B));
        Interpreter Interp;
        Interp.run(BB);
        AddressAnalysis AA;
        for (const Instruction &I : BB)
          AA.step(I);
        const SymbolicAddr Folded = AA.valueOf(D);
        EXPECT_TRUE(Folded.isConstant()) << BB[2].str();
        EXPECT_EQ(Folded.Offset, Interp.getIntReg(D))
            << opcodeName(Op) << " " << X << ", " << Y;
        ++Checked;
      }
  }
  EXPECT_EQ(Checked, 14u * 8u * 8u);
}
