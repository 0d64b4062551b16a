//===- tests/IrTest.cpp - Unit tests for the IR library -------------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"
#include "ir/Instruction.h"
#include "ir/Interpreter.h"
#include "ir/IrBuilder.h"
#include "ir/IrPrinter.h"
#include "ir/IrVerifier.h"
#include "ir/Opcode.h"
#include "ir/Reg.h"

#include <gtest/gtest.h>

#include <limits>

using namespace bsched;

//===----------------------------------------------------------------------===
// Reg
//===----------------------------------------------------------------------===

TEST(RegTest, InvalidByDefault) {
  Reg R;
  EXPECT_FALSE(R.isValid());
  EXPECT_FALSE(R.isVirtual());
  EXPECT_FALSE(R.isPhysical());
  EXPECT_EQ(R.str(), "<invalid>");
}

TEST(RegTest, VirtualEncoding) {
  Reg R = Reg::makeVirtual(RegClass::Fp, 12);
  EXPECT_TRUE(R.isValid());
  EXPECT_TRUE(R.isVirtual());
  EXPECT_FALSE(R.isPhysical());
  EXPECT_EQ(R.regClass(), RegClass::Fp);
  EXPECT_EQ(R.id(), 12u);
  EXPECT_EQ(R.str(), "%f12");
}

TEST(RegTest, PhysicalEncoding) {
  Reg R = Reg::makePhysical(RegClass::Int, 3);
  EXPECT_TRUE(R.isPhysical());
  EXPECT_EQ(R.regClass(), RegClass::Int);
  EXPECT_EQ(R.str(), "$i3");
}

TEST(RegTest, EqualityDistinguishesSpaces) {
  EXPECT_EQ(Reg::makeVirtual(RegClass::Int, 1),
            Reg::makeVirtual(RegClass::Int, 1));
  EXPECT_NE(Reg::makeVirtual(RegClass::Int, 1),
            Reg::makePhysical(RegClass::Int, 1));
  EXPECT_NE(Reg::makeVirtual(RegClass::Int, 1),
            Reg::makeVirtual(RegClass::Fp, 1));
  EXPECT_NE(Reg::makeVirtual(RegClass::Int, 1),
            Reg::makeVirtual(RegClass::Int, 2));
}

//===----------------------------------------------------------------------===
// Opcode properties
//===----------------------------------------------------------------------===

TEST(OpcodeTest, NameRoundTripsForAllOpcodes) {
  for (unsigned I = 0; I != NumOpcodes; ++I) {
    Opcode Op = static_cast<Opcode>(I);
    std::optional<Opcode> Parsed = parseOpcode(opcodeName(Op));
    ASSERT_TRUE(Parsed.has_value()) << opcodeName(Op);
    EXPECT_EQ(*Parsed, Op);
  }
}

TEST(OpcodeTest, UnknownNameRejected) {
  EXPECT_FALSE(parseOpcode("bogus").has_value());
  EXPECT_FALSE(parseOpcode("").has_value());
}

TEST(OpcodeTest, LoadStoreClassification) {
  EXPECT_TRUE(isLoadOpcode(Opcode::Load));
  EXPECT_TRUE(isLoadOpcode(Opcode::FLoad));
  EXPECT_FALSE(isLoadOpcode(Opcode::Store));
  EXPECT_TRUE(isStoreOpcode(Opcode::FStore));
  EXPECT_TRUE(isMemoryOpcode(Opcode::Load));
  EXPECT_TRUE(isMemoryOpcode(Opcode::Store));
  EXPECT_FALSE(isMemoryOpcode(Opcode::Add));
}

TEST(OpcodeTest, TerminatorClassification) {
  EXPECT_TRUE(isTerminatorOpcode(Opcode::Jump));
  EXPECT_TRUE(isTerminatorOpcode(Opcode::Ret));
  EXPECT_TRUE(isTerminatorOpcode(Opcode::BranchZero));
  EXPECT_FALSE(isTerminatorOpcode(Opcode::Nop));
  EXPECT_FALSE(isTerminatorOpcode(Opcode::Load));
}

TEST(OpcodeTest, SourceClassTables) {
  EXPECT_EQ(opcodeNumSrcs(Opcode::FMadd), 3u);
  EXPECT_TRUE(opcodeSrcIsFp(Opcode::FMadd, 2));
  EXPECT_EQ(opcodeNumSrcs(Opcode::Store), 2u);
  EXPECT_FALSE(opcodeSrcIsFp(Opcode::Store, 0));
  EXPECT_TRUE(opcodeSrcIsFp(Opcode::FStore, 0));
  EXPECT_FALSE(opcodeSrcIsFp(Opcode::FStore, 1)); // Base address is int.
  EXPECT_TRUE(opcodeDestIsFp(Opcode::CvtIF));
  EXPECT_FALSE(opcodeDestIsFp(Opcode::CvtFI));
}

//===----------------------------------------------------------------------===
// Instruction
//===----------------------------------------------------------------------===

namespace {
Reg vi(unsigned Id) { return Reg::makeVirtual(RegClass::Int, Id); }
Reg vf(unsigned Id) { return Reg::makeVirtual(RegClass::Fp, Id); }
} // namespace

TEST(InstructionTest, BinaryShape) {
  Instruction I = Instruction::makeBinary(Opcode::Add, vi(0), vi(1), vi(2));
  EXPECT_TRUE(I.hasDest());
  EXPECT_EQ(I.dest(), vi(0));
  ASSERT_EQ(I.sources().size(), 2u);
  EXPECT_EQ(I.source(0), vi(1));
  EXPECT_EQ(I.source(1), vi(2));
  EXPECT_FALSE(I.isMemory());
  EXPECT_EQ(I.str(), "%i0 = add %i1, %i2");
}

TEST(InstructionTest, LoadShape) {
  Instruction I = Instruction::makeLoad(Opcode::FLoad, vf(3), vi(1), 16, 2);
  EXPECT_TRUE(I.isLoad());
  EXPECT_TRUE(I.isMemory());
  EXPECT_EQ(I.aliasClass(), 2);
  EXPECT_EQ(I.addressBase(), vi(1));
  EXPECT_EQ(I.imm(), 16);
  EXPECT_EQ(I.str(), "%f3 = fload [%i1 + 16] !2");
}

TEST(InstructionTest, StoreShape) {
  Instruction I = Instruction::makeStore(Opcode::Store, vi(5), vi(1), -8, 0);
  EXPECT_TRUE(I.isStore());
  EXPECT_FALSE(I.hasDest());
  EXPECT_EQ(I.storedValue(), vi(5));
  EXPECT_EQ(I.addressBase(), vi(1));
  EXPECT_EQ(I.str(), "store %i5, [%i1 - 8] !0");
}

TEST(InstructionTest, ImmediatesPrint) {
  EXPECT_EQ(Instruction::makeLoadImm(vi(0), -42).str(), "%i0 = li -42");
  EXPECT_EQ(Instruction::makeFLoadImm(vf(0), 0.5).str(), "%f0 = fli 0.5");
  EXPECT_EQ(Instruction::makeBinaryImm(Opcode::AddI, vi(1), vi(0), 8).str(),
            "%i1 = addi %i0, 8");
}

TEST(InstructionTest, TerminatorsPrint) {
  EXPECT_EQ(Instruction::makeJump(3).str(), "jump 3");
  EXPECT_EQ(Instruction::makeBranch(Opcode::BranchZero, vi(0), 1).str(),
            "bz %i0, 1");
  EXPECT_EQ(Instruction::makeRet().str(), "ret");
}

TEST(InstructionTest, SetImmRewrites) {
  Instruction I = Instruction::makeJump(0);
  I.setImm(7);
  EXPECT_EQ(I.imm(), 7);
}

TEST(InstructionTest, OperandRewrite) {
  Instruction I = Instruction::makeBinary(Opcode::FAdd, vf(0), vf(1), vf(2));
  I.setSource(1, vf(9));
  EXPECT_EQ(I.source(1), vf(9));
  I.setDest(vf(8));
  EXPECT_EQ(I.dest(), vf(8));
}

//===----------------------------------------------------------------------===
// BasicBlock / Function
//===----------------------------------------------------------------------===

TEST(BasicBlockTest, AppendAndIndices) {
  BasicBlock BB("body", 250.0);
  EXPECT_EQ(BB.append(Instruction::makeLoadImm(vi(0), 1)), 0u);
  EXPECT_EQ(BB.append(Instruction::makeLoadImm(vi(1), 2)), 1u);
  EXPECT_EQ(BB.size(), 2u);
  EXPECT_EQ(BB.name(), "body");
  EXPECT_DOUBLE_EQ(BB.frequency(), 250.0);
  EXPECT_FALSE(BB.hasTerminator());
  EXPECT_EQ(BB.schedulableSize(), 2u);
}

TEST(BasicBlockTest, TerminatorTracking) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 1));
  BB.append(Instruction::makeRet());
  EXPECT_TRUE(BB.hasTerminator());
  EXPECT_EQ(BB.schedulableSize(), 1u);
}

TEST(FunctionTest, VirtualRegFactoryAdvances) {
  Function F("f");
  Reg A = F.makeVirtualReg(RegClass::Int);
  Reg B = F.makeVirtualReg(RegClass::Int);
  Reg C = F.makeVirtualReg(RegClass::Fp);
  EXPECT_NE(A, B);
  EXPECT_EQ(C.regClass(), RegClass::Fp);
  EXPECT_EQ(C.id(), 0u); // Fp counter is independent of Int counter.
}

TEST(FunctionTest, ReserveVirtualRegAvoidsCollision) {
  Function F("f");
  F.reserveVirtualReg(RegClass::Int, 10);
  Reg Next = F.makeVirtualReg(RegClass::Int);
  EXPECT_EQ(Next.id(), 11u);
}

TEST(FunctionTest, AliasClassInterning) {
  Function F("f");
  AliasClassId A = F.getOrCreateAliasClass("x");
  AliasClassId B = F.getOrCreateAliasClass("y");
  EXPECT_NE(A, B);
  EXPECT_EQ(F.getOrCreateAliasClass("x"), A);
  EXPECT_EQ(F.aliasClassName(A), "x");
  EXPECT_EQ(F.numAliasClasses(), 2u);
}

TEST(FunctionTest, TotalInstructions) {
  Function F("f");
  BasicBlock &B0 = F.addBlock("a");
  BasicBlock &B1 = F.addBlock("b");
  B0.append(Instruction::makeLoadImm(vi(0), 1));
  B1.append(Instruction::makeLoadImm(vi(1), 2));
  B1.append(Instruction::makeRet());
  EXPECT_EQ(F.totalInstructions(), 3u);
  EXPECT_EQ(F.numBlocks(), 2u);
}

//===----------------------------------------------------------------------===
// IrBuilder
//===----------------------------------------------------------------------===

TEST(IrBuilderTest, EmitsWellFormedKernel) {
  Function F("kernel");
  BasicBlock &BB = F.addBlock("entry");
  IrBuilder B(F, BB);

  Reg Base = B.emitLoadImm(1000);
  Reg X = B.emitFLoad(Base, 0, F.getOrCreateAliasClass("a"));
  Reg Y = B.emitFLoad(Base, 8, F.getOrCreateAliasClass("a"));
  Reg Sum = B.emitBinary(Opcode::FAdd, X, Y);
  B.emitStore(Sum, Base, 16, F.getOrCreateAliasClass("b"));
  B.emitRet();

  EXPECT_EQ(BB.size(), 6u);
  EXPECT_TRUE(BB.hasTerminator());
  EXPECT_TRUE(verifyClean(verifyFunction(F)));
}

TEST(IrBuilderTest, StoreSelectsOpcodeByClass) {
  Function F("f");
  BasicBlock &BB = F.addBlock("b");
  IrBuilder B(F, BB);
  Reg Base = B.emitLoadImm(0);
  Reg IVal = B.emitLoadImm(1);
  Reg FVal = B.emitFLoadImm(1.0);
  B.emitStore(IVal, Base, 0, 0);
  B.emitStore(FVal, Base, 8, 0);
  EXPECT_EQ(BB[3].opcode(), Opcode::Store);
  EXPECT_EQ(BB[4].opcode(), Opcode::FStore);
}

//===----------------------------------------------------------------------===
// Verifier
//===----------------------------------------------------------------------===

TEST(VerifierTest, AcceptsValidBlock) {
  BasicBlock BB("ok");
  BB.append(Instruction::makeLoadImm(vi(0), 5));
  BB.append(Instruction::makeRet());
  EXPECT_TRUE(verifyClean(verifyBlock(BB)));
}

TEST(VerifierTest, RejectsOutOfRangeBranchTarget) {
  Function F("f");
  BasicBlock &BB = F.addBlock("b");
  BB.append(Instruction::makeJump(5));
  std::vector<Diagnostic> Errors = verifyFunction(F);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_EQ(Errors[0].Code, DiagCode::VerifyBranchOutOfRange);
  EXPECT_NE(Errors[0].Message.find("out of range"), std::string::npos);
}

TEST(VerifierTest, AcceptsInRangeBranchTarget) {
  Function F("f");
  F.addBlock("a").append(Instruction::makeJump(1));
  F.addBlock("b").append(Instruction::makeRet());
  EXPECT_TRUE(verifyClean(verifyFunction(F)));
}

//===----------------------------------------------------------------------===
// Printer
//===----------------------------------------------------------------------===

TEST(PrinterTest, BlockFormat) {
  BasicBlock BB("loop", 42.0);
  BB.append(Instruction::makeLoadImm(vi(0), 7));
  std::string S = printBlock(BB);
  EXPECT_NE(S.find("block loop freq 42"), std::string::npos);
  EXPECT_NE(S.find("%i0 = li 7"), std::string::npos);
  EXPECT_NE(S.find("}"), std::string::npos);
}

TEST(PrinterTest, FunctionFormat) {
  Function F("main");
  F.addBlock("entry").append(Instruction::makeRet());
  std::string S = printFunction(F);
  EXPECT_EQ(S.find("func @main {"), 0u);
}

//===----------------------------------------------------------------------===
// Interpreter
//===----------------------------------------------------------------------===

TEST(InterpreterTest, IntegerArithmetic) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 6));
  BB.append(Instruction::makeLoadImm(vi(1), 7));
  BB.append(Instruction::makeBinary(Opcode::Mul, vi(2), vi(0), vi(1)));
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, vi(3), vi(2), -2));
  Interpreter I;
  I.run(BB);
  EXPECT_EQ(I.getIntReg(vi(2)), 42);
  EXPECT_EQ(I.getIntReg(vi(3)), 40);
  EXPECT_EQ(I.instructionsExecuted(), 4u);
}

TEST(InterpreterTest, DivisionByZeroIsDefined) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 5));
  BB.append(Instruction::makeLoadImm(vi(1), 0));
  BB.append(Instruction::makeBinary(Opcode::Div, vi(2), vi(0), vi(1)));
  BB.append(Instruction::makeBinary(Opcode::Rem, vi(3), vi(0), vi(1)));
  Interpreter I;
  I.run(BB);
  EXPECT_EQ(I.getIntReg(vi(2)), 0);
  EXPECT_EQ(I.getIntReg(vi(3)), 0);
}

TEST(InterpreterTest, FloatingPointAndFMadd) {
  BasicBlock BB("b");
  BB.append(Instruction::makeFLoadImm(vf(0), 1.5));
  BB.append(Instruction::makeFLoadImm(vf(1), 2.0));
  BB.append(Instruction::makeFLoadImm(vf(2), 0.25));
  BB.append(Instruction::makeFMadd(vf(3), vf(0), vf(1), vf(2)));
  Interpreter I;
  I.run(BB);
  EXPECT_DOUBLE_EQ(I.getFpReg(vf(3)), 3.25);
}

TEST(InterpreterTest, MemoryRoundTrip) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 100));
  BB.append(Instruction::makeFLoadImm(vf(0), 9.75));
  BB.append(Instruction::makeStore(Opcode::FStore, vf(0), vi(0), 8, 1));
  BB.append(Instruction::makeLoad(Opcode::FLoad, vf(1), vi(0), 8, 1));
  Interpreter I;
  I.run(BB);
  EXPECT_DOUBLE_EQ(I.getFpReg(vf(1)), 9.75);
}

TEST(InterpreterTest, AliasClassesAreDisjoint) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 0));
  BB.append(Instruction::makeLoadImm(vi(1), 111));
  BB.append(Instruction::makeStore(Opcode::Store, vi(1), vi(0), 0, 1));
  BB.append(Instruction::makeLoad(Opcode::Load, vi(2), vi(0), 0, 2));
  Interpreter I;
  I.run(BB);
  // Class 2 never saw the store to class 1.
  EXPECT_NE(I.getIntReg(vi(2)), 111);
}

TEST(InterpreterTest, UninitializedReadsAreDeterministic) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 0));
  BB.append(Instruction::makeLoad(Opcode::Load, vi(1), vi(0), 64, 3));
  Interpreter A, B;
  A.run(BB);
  B.run(BB);
  EXPECT_EQ(A.getIntReg(vi(1)), B.getIntReg(vi(1)));
  EXPECT_EQ(A.getIntReg(vi(9)), B.getIntReg(vi(9))); // Never-written reg.
}

TEST(InterpreterTest, LiveInSeeding) {
  BasicBlock BB("b");
  BB.append(Instruction::makeBinary(Opcode::Add, vi(2), vi(0), vi(1)));
  Interpreter I;
  I.setIntReg(vi(0), 40);
  I.setIntReg(vi(1), 2);
  I.run(BB);
  EXPECT_EQ(I.getIntReg(vi(2)), 42);
}

TEST(InterpreterTest, IntAluIsDefinedOnTheWholeDomain) {
  const int64_t Min = std::numeric_limits<int64_t>::min();
  const int64_t Max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(evalIntAlu(Opcode::Add, Max, 1), Min);
  EXPECT_EQ(evalIntAlu(Opcode::Sub, Min, 1), Max);
  EXPECT_EQ(evalIntAlu(Opcode::Mul, Min, -1), Min);
  EXPECT_EQ(evalIntAlu(Opcode::Div, Min, -1), Min);
  EXPECT_EQ(evalIntAlu(Opcode::Div, 7, 0), 0);
  EXPECT_EQ(evalIntAlu(Opcode::Rem, Min, -1), 0);
  EXPECT_EQ(evalIntAlu(Opcode::Rem, 7, 0), 0);
  EXPECT_EQ(evalIntAlu(Opcode::Rem, -7, 2), -1);
  EXPECT_EQ(evalIntAlu(Opcode::Shl, 1, 63), Min);
  EXPECT_EQ(evalIntAlu(Opcode::Shl, 1, 64), 1);
  EXPECT_EQ(evalIntAlu(Opcode::ShlI, 1, 65), 2);
  EXPECT_EQ(evalIntAlu(Opcode::Shr, -1, 63), 1); // Logical.
  EXPECT_EQ(evalIntAlu(Opcode::Shr, -1, 64), -1);
  EXPECT_EQ(evalIntAlu(Opcode::Slt, Min, 0), 1); // Signed.
  EXPECT_EQ(evalIntAlu(Opcode::Slt, 0, Min), 0);
  EXPECT_EQ(evalIntAlu(Opcode::MulI, Max, 2), -2);
  EXPECT_EQ(evalIntAlu(Opcode::AddI, Min, -1), Max);

  unsigned AluOps = 0;
  for (unsigned Op = 0; Op != NumOpcodes; ++Op)
    AluOps += isIntAluOpcode(static_cast<Opcode>(Op));
  EXPECT_EQ(AluOps, 14u);
  EXPECT_FALSE(isIntAluOpcode(Opcode::LoadImm));
  EXPECT_FALSE(isIntAluOpcode(Opcode::Move));
  EXPECT_FALSE(isIntAluOpcode(Opcode::Load));
}

TEST(InterpreterTest, StepExecutesWhatRunExecutes) {
  BasicBlock BB("b");
  AliasClassId M = 0;
  BB.append(Instruction::makeLoadImm(vi(0), 64));
  BB.append(Instruction::makeLoad(Opcode::Load, vi(1), vi(0), 8, M));
  BB.append(Instruction::makeBinary(Opcode::Xor, vi(2), vi(1), vi(5)));
  BB.append(Instruction::makeStore(Opcode::Store, vi(2), vi(0), 16, M));
  BB.append(Instruction::makeLoad(Opcode::Load, vi(0), vi(0), 16, M));
  BB.append(Instruction::makeStore(Opcode::Store, vi(0), vi(0), -8, M));
  BB.append(Instruction::makeRet());
  BB.append(Instruction::makeLoadImm(vi(3), 1)); // After the terminator.

  Interpreter Run, Step;
  Run.run(BB);
  std::vector<int64_t> Addresses;
  for (const Instruction &I : BB) {
    if (I.isTerminator())
      break;
    if (I.isMemory())
      Addresses.push_back(Step.effectiveAddress(I));
    Step.step(I);
  }
  EXPECT_EQ(Run.memoryImage(), Step.memoryImage());
  EXPECT_EQ(Run.instructionsExecuted(), Step.instructionsExecuted());
  for (unsigned R = 0; R != 4; ++R)
    EXPECT_EQ(Run.getIntReg(vi(R)), Step.getIntReg(vi(R))) << R;
  // The self-base load's address uses the base before the load's def.
  ASSERT_EQ(Addresses.size(), 4u);
  EXPECT_EQ(Addresses[0], 72);
  EXPECT_EQ(Addresses[2], 80);
  EXPECT_EQ(Addresses[3], Run.getIntReg(vi(0)) - 8);
  // A terminator does nothing.
  Step.step(Instruction::makeRet());
  EXPECT_EQ(Run.instructionsExecuted(), Step.instructionsExecuted());
}

TEST(InterpreterTest, StopsAtTerminator) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 1));
  BB.append(Instruction::makeRet());
  Interpreter I;
  I.run(BB);
  EXPECT_EQ(I.instructionsExecuted(), 1u);
}

TEST(InterpreterTest, MemoryImageExcluding) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 0));
  BB.append(Instruction::makeLoadImm(vi(1), 5));
  BB.append(Instruction::makeStore(Opcode::Store, vi(1), vi(0), 0, 1));
  BB.append(Instruction::makeStore(Opcode::Store, vi(1), vi(0), 0, 2));
  Interpreter I;
  I.run(BB);
  EXPECT_EQ(I.memoryImage().size(), 2u);
  Interpreter::MemoryImage Filtered = I.memoryImageExcluding(2);
  EXPECT_EQ(Filtered.size(), 1u);
  EXPECT_EQ(Filtered.begin()->first.first, 1);
}

TEST(InterpreterTest, ConversionOpcodes) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), -3));
  BB.append(Instruction::makeUnary(Opcode::CvtIF, vf(0), vi(0)));
  BB.append(Instruction::makeFLoadImm(vf(1), 2.9));
  BB.append(Instruction::makeUnary(Opcode::CvtFI, vi(1), vf(1)));
  BB.append(Instruction::makeBinary(Opcode::FSlt, vi(2), vf(0), vf(1)));
  Interpreter I;
  I.run(BB);
  EXPECT_DOUBLE_EQ(I.getFpReg(vf(0)), -3.0);
  EXPECT_EQ(I.getIntReg(vi(1)), 2);
  EXPECT_EQ(I.getIntReg(vi(2)), 1);
}

//===----------------------------------------------------------------------===
// Interpreter: remaining opcode coverage
//===----------------------------------------------------------------------===

TEST(InterpreterTest, BitwiseAndShiftOps) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 0b1100));
  BB.append(Instruction::makeLoadImm(vi(1), 0b1010));
  BB.append(Instruction::makeBinary(Opcode::And, vi(2), vi(0), vi(1)));
  BB.append(Instruction::makeBinary(Opcode::Or, vi(3), vi(0), vi(1)));
  BB.append(Instruction::makeBinary(Opcode::Xor, vi(4), vi(0), vi(1)));
  BB.append(Instruction::makeLoadImm(vi(5), 2));
  BB.append(Instruction::makeBinary(Opcode::Shl, vi(6), vi(0), vi(5)));
  BB.append(Instruction::makeBinary(Opcode::Shr, vi(7), vi(0), vi(5)));
  BB.append(Instruction::makeBinaryImm(Opcode::ShlI, vi(8), vi(0), 3));
  Interpreter I;
  I.run(BB);
  EXPECT_EQ(I.getIntReg(vi(2)), 0b1000);
  EXPECT_EQ(I.getIntReg(vi(3)), 0b1110);
  EXPECT_EQ(I.getIntReg(vi(4)), 0b0110);
  EXPECT_EQ(I.getIntReg(vi(6)), 0b110000);
  EXPECT_EQ(I.getIntReg(vi(7)), 0b11);
  EXPECT_EQ(I.getIntReg(vi(8)), 0b1100000);
}

TEST(InterpreterTest, ComparisonAndMoves) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), -3));
  BB.append(Instruction::makeLoadImm(vi(1), 5));
  BB.append(Instruction::makeBinary(Opcode::Slt, vi(2), vi(0), vi(1)));
  BB.append(Instruction::makeBinary(Opcode::Slt, vi(3), vi(1), vi(0)));
  BB.append(Instruction::makeUnary(Opcode::Move, vi(4), vi(1)));
  BB.append(Instruction::makeFLoadImm(vf(0), 2.5));
  BB.append(Instruction::makeUnary(Opcode::FMove, vf(1), vf(0)));
  BB.append(Instruction::makeUnary(Opcode::FNeg, vf(2), vf(0)));
  Interpreter I;
  I.run(BB);
  EXPECT_EQ(I.getIntReg(vi(2)), 1);
  EXPECT_EQ(I.getIntReg(vi(3)), 0);
  EXPECT_EQ(I.getIntReg(vi(4)), 5);
  EXPECT_DOUBLE_EQ(I.getFpReg(vf(1)), 2.5);
  EXPECT_DOUBLE_EQ(I.getFpReg(vf(2)), -2.5);
}

TEST(InterpreterTest, MulIAndSubDiv) {
  BasicBlock BB("b");
  BB.append(Instruction::makeLoadImm(vi(0), 7));
  BB.append(Instruction::makeBinaryImm(Opcode::MulI, vi(1), vi(0), 6));
  BB.append(Instruction::makeLoadImm(vi(2), 100));
  BB.append(Instruction::makeBinary(Opcode::Sub, vi(3), vi(2), vi(1)));
  BB.append(Instruction::makeBinary(Opcode::Div, vi(4), vi(2), vi(0)));
  BB.append(Instruction::makeBinary(Opcode::Rem, vi(5), vi(2), vi(0)));
  Interpreter I;
  I.run(BB);
  EXPECT_EQ(I.getIntReg(vi(1)), 42);
  EXPECT_EQ(I.getIntReg(vi(3)), 58);
  EXPECT_EQ(I.getIntReg(vi(4)), 14);
  EXPECT_EQ(I.getIntReg(vi(5)), 2);
}

TEST(InterpreterTest, FpArithmeticOps) {
  BasicBlock BB("b");
  BB.append(Instruction::makeFLoadImm(vf(0), 9.0));
  BB.append(Instruction::makeFLoadImm(vf(1), 4.0));
  BB.append(Instruction::makeBinary(Opcode::FSub, vf(2), vf(0), vf(1)));
  BB.append(Instruction::makeBinary(Opcode::FDiv, vf(3), vf(0), vf(1)));
  BB.append(Instruction::makeFLoadImm(vf(4), 0.0));
  BB.append(Instruction::makeBinary(Opcode::FDiv, vf(5), vf(0), vf(4)));
  Interpreter I;
  I.run(BB);
  EXPECT_DOUBLE_EQ(I.getFpReg(vf(2)), 5.0);
  EXPECT_DOUBLE_EQ(I.getFpReg(vf(3)), 2.25);
  EXPECT_DOUBLE_EQ(I.getFpReg(vf(5)), 0.0); // Defined division by zero.
}

TEST(InterpreterTest, NopAndIntMemoryRoundTrip) {
  BasicBlock BB("b");
  BB.append(Instruction::makeNop());
  BB.append(Instruction::makeLoadImm(vi(0), 500));
  BB.append(Instruction::makeLoadImm(vi(1), -77));
  BB.append(Instruction::makeStore(Opcode::Store, vi(1), vi(0), 16, 2));
  BB.append(Instruction::makeLoad(Opcode::Load, vi(2), vi(0), 16, 2));
  Interpreter I;
  I.run(BB);
  EXPECT_EQ(I.getIntReg(vi(2)), -77);
  EXPECT_EQ(I.instructionsExecuted(), 5u);
}
