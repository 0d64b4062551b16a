//===- tests/RegAllocTest.cpp - Unit tests for register allocation --------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/Interpreter.h"
#include "ir/IrBuilder.h"
#include "ir/IrVerifier.h"
#include "regalloc/LocalRegAlloc.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <unordered_set>

using namespace bsched;

namespace {

/// True if every register operand in \p BB is physical.
bool fullyPhysical(const BasicBlock &BB) {
  for (const Instruction &I : BB) {
    if (I.hasDest() && !I.dest().isPhysical())
      return false;
    for (Reg Src : I.sources())
      if (!Src.isPhysical())
        return false;
  }
  return true;
}

/// Runs \p Original and its allocated rewrite, seeding allocated live-ins
/// from the original's register values at block entry, and compares
/// program-visible memory (everything except the spill area).
void expectSemanticsPreserved(Function &F, const BasicBlock &Original,
                              const BasicBlock &Allocated,
                              const RegAllocResult &Alloc) {
  Interpreter Before;
  Interpreter After;
  for (const auto &[VregRaw, Phys] : Alloc.LiveInAssignment) {
    // Reconstruct the Reg from its raw bits. `Before` has not run yet (the
    // block may redefine a live-in), so it reads the deterministic default
    // of the *virtual* register: the live-in's entry value.
    Reg Vreg = Phys.regClass() == RegClass::Fp
                   ? Reg::makeVirtual(RegClass::Fp, VregRaw & 0xFFFFFF)
                   : Reg::makeVirtual(RegClass::Int, VregRaw & 0xFFFFFF);
    ASSERT_EQ(Vreg.rawBits(), VregRaw);
    if (Phys.regClass() == RegClass::Fp)
      After.setFpReg(Phys, Before.getFpReg(Vreg));
    else
      After.setIntReg(Phys, Before.getIntReg(Vreg));
  }
  Before.run(Original);
  After.run(Allocated);

  AliasClassId Spill = F.getOrCreateAliasClass(SpillAliasClassName);
  EXPECT_EQ(Before.memoryImage(), After.memoryImageExcluding(Spill));
}

/// Convenience: tiny register files to force spilling.
TargetDescription tinyTarget() {
  TargetDescription T;
  T.NumIntRegs = 9; // 4 general + 4 pool + FP.
  T.NumFpRegs = 8;  // 4 general + 4 pool.
  T.SpillPoolSize = 4;
  return T;
}

} // namespace

TEST(RegAllocTest, SimpleBlockNoSpills) {
  Function F("f");
  BasicBlock &BB = F.addBlock("b");
  IrBuilder B(F, BB);
  Reg A = B.emitLoadImm(1);
  Reg C = B.emitLoadImm(2);
  Reg D = B.emitBinary(Opcode::Add, A, C);
  B.emitStore(D, A, 0, F.getOrCreateAliasClass("m"));
  B.emitRet();

  BasicBlock Original = BB;
  RegAllocResult Alloc = allocateRegisters(F, BB);
  EXPECT_EQ(Alloc.spillInstructions(), 0u);
  EXPECT_TRUE(fullyPhysical(BB));
  EXPECT_TRUE(verifyClean(verifyBlock(BB)));
  EXPECT_EQ(BB.size(), Original.size());
  expectSemanticsPreserved(F, Original, BB, Alloc);
}

TEST(RegAllocTest, HighPressureForcesSpills) {
  // Define 12 long-lived values with 4 general registers: must spill.
  Function F("f");
  BasicBlock &BB = F.addBlock("b");
  IrBuilder B(F, BB);
  std::vector<Reg> Vals;
  for (int I = 0; I != 12; ++I)
    Vals.push_back(B.emitLoadImm(I * 10));
  // Consume them all afterwards so every value stays live across the defs.
  Reg Sum = Vals[0];
  for (int I = 1; I != 12; ++I)
    Sum = B.emitBinary(Opcode::Add, Sum, Vals[I]);
  Reg Base = B.emitLoadImm(0);
  B.emitStore(Sum, Base, 0, F.getOrCreateAliasClass("m"));

  BasicBlock Original = BB;
  RegAllocResult Alloc = allocateRegisters(F, BB, tinyTarget());
  EXPECT_GT(Alloc.SpillStores, 0u);
  EXPECT_GT(Alloc.SpillLoads, 0u);
  EXPECT_TRUE(fullyPhysical(BB));
  expectSemanticsPreserved(F, Original, BB, Alloc);
}

TEST(RegAllocTest, SpillCodeUsesDedicatedClassAndFramePointer) {
  Function F("f");
  BasicBlock &BB = F.addBlock("b");
  IrBuilder B(F, BB);
  std::vector<Reg> Vals;
  for (int I = 0; I != 10; ++I)
    Vals.push_back(B.emitLoadImm(I));
  Reg Sum = Vals[0];
  for (int I = 1; I != 10; ++I)
    Sum = B.emitBinary(Opcode::Add, Sum, Vals[I]);
  B.emitStore(Sum, Vals[0], 0, F.getOrCreateAliasClass("m"));

  TargetDescription Target = tinyTarget();
  RegAllocResult Alloc = allocateRegisters(F, BB, Target);
  ASSERT_GT(Alloc.spillInstructions(), 0u);

  AliasClassId Spill = F.getOrCreateAliasClass(SpillAliasClassName);
  unsigned Seen = 0;
  for (const Instruction &I : BB) {
    if (!I.isMemory() || I.aliasClass() != Spill)
      continue;
    ++Seen;
    EXPECT_EQ(I.addressBase(), Target.framePointer());
  }
  EXPECT_EQ(Seen, Alloc.spillInstructions());
}

TEST(RegAllocTest, LiveInsGetStableAssignments) {
  Function F("f");
  BasicBlock &BB = F.addBlock("b");
  Reg In0 = F.makeVirtualReg(RegClass::Int);
  Reg In1 = F.makeVirtualReg(RegClass::Int);
  IrBuilder B(F, BB);
  Reg Sum = B.emitBinary(Opcode::Add, In0, In1);
  B.emitStore(Sum, In0, 0, F.getOrCreateAliasClass("m"));

  RegAllocResult Alloc = allocateRegisters(F, BB);
  EXPECT_EQ(Alloc.LiveInAssignment.size(), 2u);
  EXPECT_TRUE(Alloc.LiveInAssignment.count(In0.rawBits()));
  EXPECT_TRUE(Alloc.LiveInAssignment.count(In1.rawBits()));
}

TEST(RegAllocTest, LiveInKeepsItsRegisterAfterAnotherValueDies) {
  // %i2 dies at the second instruction, before live-in %i3 is first read;
  // %i3 must still enter the block in a register of its own, not take
  // the one %i2 was computed into.
  Function F("chase");
  BasicBlock &BB = F.addBlock("b");
  AliasClassId M = F.getOrCreateAliasClass("m");
  Reg I1 = Reg::makeVirtual(RegClass::Int, 1);
  Reg I2 = Reg::makeVirtual(RegClass::Int, 2);
  Reg I3 = Reg::makeVirtual(RegClass::Int, 3);
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, I2, I1, -8));
  BB.append(Instruction::makeStore(Opcode::Store, I2, I1, 8, M));
  BB.append(Instruction::makeLoad(Opcode::Load, I1, I1, 8, M));
  BB.append(Instruction::makeStore(Opcode::Store, I3, I1, 16, M));

  BasicBlock Original = BB;
  RegAllocResult Alloc = allocateRegisters(F, BB);
  ASSERT_EQ(Alloc.LiveInAssignment.size(), 2u);
  EXPECT_NE(Alloc.LiveInAssignment.at(I1.rawBits()),
            Alloc.LiveInAssignment.at(I3.rawBits()));
  EXPECT_NE(BB[0].dest(), Alloc.LiveInAssignment.at(I3.rawBits()));
  expectSemanticsPreserved(F, Original, BB, Alloc);
}

TEST(RegAllocTest, LiveInsAreBoundAtEntryInFirstReadOrder) {
  // Five live-ins, each stored once (and %i1 twice), enter in $i0..$i4
  // under the default target and under one with exactly five general
  // registers, where %i10's def evicts a live-in that must then be
  // spilled from the register it entered in.
  auto Build = [](Function &F) -> BasicBlock & {
    BasicBlock &BB = F.addBlock("b");
    AliasClassId M = F.getOrCreateAliasClass("m");
    Reg Base = Reg::makeVirtual(RegClass::Int, 10);
    BB.append(Instruction::makeLoadImm(Base, 4096));
    for (unsigned I = 1; I <= 5; ++I)
      BB.append(Instruction::makeStore(Opcode::Store,
                                       Reg::makeVirtual(RegClass::Int, I),
                                       Base, 8 * (I - 1), M));
    BB.append(Instruction::makeStore(
        Opcode::Store, Reg::makeVirtual(RegClass::Int, 1), Base, 40, M));
    return BB;
  };
  TargetDescription Five;
  Five.NumIntRegs = 10; // 5 general + 4 pool + FP.
  for (const TargetDescription &Target : {TargetDescription(), Five}) {
    Function F("li");
    BasicBlock &BB = Build(F);
    BasicBlock Original = BB;
    RegAllocResult Alloc = allocateRegisters(F, BB, Target);
    ASSERT_EQ(Alloc.LiveInAssignment.size(), 5u);
    for (unsigned I = 1; I <= 5; ++I)
      EXPECT_EQ(Alloc.LiveInAssignment.at(
                    Reg::makeVirtual(RegClass::Int, I).rawBits()),
                Reg::makePhysical(RegClass::Int, I - 1));
    expectSemanticsPreserved(F, Original, BB, Alloc);
  }
}

TEST(RegAllocTest, BlockLiveInsListsFirstReads) {
  BasicBlock BB("b");
  Reg A = Reg::makeVirtual(RegClass::Int, 1);
  Reg B = Reg::makeVirtual(RegClass::Int, 2);
  Reg C = Reg::makeVirtual(RegClass::Fp, 3);
  BB.append(Instruction::makeBinary(Opcode::Add, A, B, A)); // Reads B, A.
  BB.append(Instruction::makeUnary(Opcode::CvtIF, C, A));    // A is defined.
  BB.append(Instruction::makeStore(Opcode::FStore, C, B, 0, 0));
  std::vector<Reg> LiveIns = blockLiveIns(BB);
  EXPECT_EQ(LiveIns, (std::vector<Reg>{B, A}));
}

TEST(RegAllocTest, DestinationMayTakeASourceRegisterWhenAllArePinned) {
  // Three general FP registers, all holding fmadd sources that live on:
  // the destination spills one source and reuses its register.
  Function F("f");
  BasicBlock &BB = F.addBlock("b");
  IrBuilder B(F, BB);
  AliasClassId M = F.getOrCreateAliasClass("m");
  Reg Base = B.emitLoadImm(64);
  Reg F0 = B.emitFLoad(Base, 0, M);
  Reg F1 = B.emitFLoad(Base, 8, M);
  Reg F2 = B.emitFLoad(Base, 16, M);
  Reg Sum = B.emitFMadd(F0, F1, F2);
  B.emitStore(Sum, Base, 24, M);
  B.emitStore(F0, Base, 32, M);
  B.emitStore(F1, Base, 40, M);
  B.emitStore(F2, Base, 48, M);

  TargetDescription Target;
  Target.NumFpRegs = 7; // 3 general + 4 pool.
  BasicBlock Original = BB;
  RegAllocResult Alloc = allocateRegisters(F, BB, Target);
  EXPECT_TRUE(fullyPhysical(BB));
  EXPECT_GT(Alloc.SpillStores, 0u);
  expectSemanticsPreserved(F, Original, BB, Alloc);
}

/// Reloads under a spill pool too small for one instruction's operands:
/// an add of two spilled integers and an fmadd of three spilled FP values,
/// with three general registers per class.
class ReloadPoolTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ReloadPoolTest, ReloadsNeverShareARegisterWithinOneInstruction) {
  const unsigned Pool = GetParam();
  Function F("p");
  BasicBlock &BB = F.addBlock("b");
  IrBuilder B(F, BB);
  AliasClassId M = F.getOrCreateAliasClass("m");
  // Five integers live at once: Belady evicts I2 and I3, which the second
  // add reloads together.
  std::vector<Reg> I;
  for (int V = 0; V != 5; ++V)
    I.push_back(B.emitLoadImm(V + 1));
  Reg Sum = B.emitBinary(Opcode::Add, I[0], I[1]);
  Sum = B.emitBinary(Opcode::Add, Sum, B.emitBinary(Opcode::Add, I[2], I[3]));
  Sum = B.emitBinary(Opcode::Add, Sum, I[4]);
  Reg Base = B.emitLoadImm(4096);
  B.emitStore(Sum, Base, 64, M);
  // Six FP values: the three used last are evicted, then reloaded by one
  // fmadd.
  std::vector<Reg> Fp;
  for (int V = 0; V != 6; ++V)
    Fp.push_back(B.emitFLoad(Base, 8 * V, M));
  Reg Early = B.emitFMadd(Fp[3], Fp[4], Fp[5]);
  Reg Late = B.emitFMadd(Fp[0], Fp[1], Fp[2]);
  B.emitStore(B.emitBinary(Opcode::FAdd, Early, Late), Base, 72, M);

  TargetDescription Target;
  Target.SpillPoolSize = Pool;
  Target.NumIntRegs = Pool + 4; // 3 general + pool + FP.
  Target.NumFpRegs = Pool + 3;  // 3 general + pool.
  BasicBlock Original = BB;
  RegAllocResult Alloc = allocateRegisters(F, BB, Target);
  EXPECT_GT(Alloc.SpillLoads, 0u);
  EXPECT_TRUE(fullyPhysical(BB));
  for (const Instruction &I : BB) {
    if (I.opcode() != Opcode::Add && I.opcode() != Opcode::FMadd)
      continue;
    for (unsigned S = 1; S != I.sources().size(); ++S) {
      EXPECT_NE(I.source(S), I.source(S - 1)) << I.str();
    }
  }
  expectSemanticsPreserved(F, Original, BB, Alloc);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ReloadPoolTest, ::testing::Values(0, 1, 2));

TEST(RegAllocTest, FifoPoolRotatesReloadRegisters) {
  // Force many reloads and check that consecutive reloads use different
  // pool registers under FIFO, but the same register when FIFO is off.
  auto BuildAndCollect = [](bool Fifo) {
    Function F("f");
    BasicBlock &BB = F.addBlock("b");
    IrBuilder B(F, BB);
    std::vector<Reg> Vals;
    for (int I = 0; I != 10; ++I)
      Vals.push_back(B.emitLoadImm(I));
    // Use them in definition order: the early ones were evicted.
    Reg Acc = B.emitLoadImm(100);
    for (int I = 0; I != 10; ++I)
      Acc = B.emitBinary(Opcode::Add, Acc, Vals[I]);
    B.emitStore(Acc, Vals[9], 0, F.getOrCreateAliasClass("m"));

    TargetDescription Target;
    Target.NumIntRegs = 9;
    Target.NumFpRegs = 8;
    Target.SpillPoolSize = 3;
    Target.FifoSpillPool = Fifo;
    allocateRegisters(F, BB, Target);

    AliasClassId Spill = F.getOrCreateAliasClass(SpillAliasClassName);
    std::vector<unsigned> ReloadRegs;
    for (const Instruction &I : BB)
      if (I.isLoad() && I.aliasClass() == Spill)
        ReloadRegs.push_back(I.dest().id());
    return ReloadRegs;
  };

  std::vector<unsigned> Fifo = BuildAndCollect(true);
  std::vector<unsigned> Fixed = BuildAndCollect(false);
  ASSERT_GE(Fifo.size(), 3u);
  ASSERT_GE(Fixed.size(), 3u);

  // FIFO: consecutive reloads rotate.
  EXPECT_NE(Fifo[0], Fifo[1]);
  EXPECT_NE(Fifo[1], Fifo[2]);
  // Fixed: every reload hammers the same lowest pool register.
  std::unordered_set<unsigned> FixedSet(Fixed.begin(), Fixed.end());
  EXPECT_EQ(FixedSet.size(), 1u);
}

TEST(RegAllocTest, RedefinitionReusesRegister) {
  Function F("f");
  BasicBlock &BB = F.addBlock("b");
  Reg V = F.makeVirtualReg(RegClass::Int);
  BB.append(Instruction::makeLoadImm(V, 1));
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, V, V, 1));
  BB.append(Instruction::makeBinaryImm(Opcode::AddI, V, V, 1));
  Reg Base = F.makeVirtualReg(RegClass::Int);
  BB.append(Instruction::makeLoadImm(Base, 0));
  BB.append(Instruction::makeStore(Opcode::Store, V, Base, 0,
                                   F.getOrCreateAliasClass("m")));

  BasicBlock Original = BB;
  RegAllocResult Alloc = allocateRegisters(F, BB);
  EXPECT_EQ(Alloc.spillInstructions(), 0u);
  // All three defs of V land in the same physical register.
  EXPECT_EQ(BB[0].dest(), BB[1].dest());
  EXPECT_EQ(BB[1].dest(), BB[2].dest());
  expectSemanticsPreserved(F, Original, BB, Alloc);
}

TEST(RegAllocTest, MixedClassesAllocateIndependently) {
  Function F("f");
  BasicBlock &BB = F.addBlock("b");
  IrBuilder B(F, BB);
  Reg I0 = B.emitLoadImm(3);
  Reg F0 = B.emitFLoadImm(1.5);
  Reg F1 = B.emitBinary(Opcode::FAdd, F0, F0);
  Reg I1 = B.emitBinaryImm(Opcode::AddI, I0, 5);
  B.emitStore(F1, I1, 0, F.getOrCreateAliasClass("a"));
  B.emitStore(I1, I1, 8, F.getOrCreateAliasClass("a"));

  BasicBlock Original = BB;
  RegAllocResult Alloc = allocateRegisters(F, BB);
  EXPECT_TRUE(fullyPhysical(BB));
  expectSemanticsPreserved(F, Original, BB, Alloc);
}

TEST(RegAllocTest, TerminatorOperandAllocated) {
  Function F("f");
  F.addBlock("exit").append(Instruction::makeRet());
  BasicBlock &BB = F.addBlock("b");
  IrBuilder B(F, BB);
  Reg C = B.emitLoadImm(1);
  B.emitBranch(Opcode::BranchNotZero, C, 0);

  allocateRegisters(F, BB);
  EXPECT_TRUE(fullyPhysical(BB));
  EXPECT_TRUE(BB.hasTerminator());
}

//===----------------------------------------------------------------------===
// Property tests: random programs survive allocation under tiny targets
//===----------------------------------------------------------------------===

namespace {

/// Random straight-line program over a handful of values and two arrays.
/// Some operands are live-ins, first read at random positions; integer
/// live-ins are only stored, never used as addresses.
void buildRandomProgram(Function &F, BasicBlock &BB, Rng &R,
                        unsigned NumInstrs) {
  IrBuilder B(F, BB);
  AliasClassId ClassA = F.getOrCreateAliasClass("a");
  AliasClassId ClassB = F.getOrCreateAliasClass("b");
  std::vector<Reg> Ints{B.emitLoadImm(64), B.emitLoadImm(512)};
  std::vector<Reg> Fps{B.emitFLoadImm(0.5)};
  std::vector<Reg> IntLiveIns, FpLiveIns;
  for (unsigned I = 0; I != 3; ++I) {
    IntLiveIns.push_back(F.makeVirtualReg(RegClass::Int));
    FpLiveIns.push_back(F.makeVirtualReg(RegClass::Fp));
  }
  auto PickInt = [&] { return Ints[R.nextBounded(Ints.size())]; };
  auto PickFp = [&] { return Fps[R.nextBounded(Fps.size())]; };

  for (unsigned I = 0; I != NumInstrs; ++I) {
    switch (R.nextBounded(9)) {
    case 7:
      B.emitStore(IntLiveIns[R.nextBounded(IntLiveIns.size())], PickInt(),
                  8 * R.nextBounded(8), ClassA);
      break;
    case 8:
      Fps.push_back(B.emitBinary(Opcode::FAdd, PickFp(),
                                 FpLiveIns[R.nextBounded(FpLiveIns.size())]));
      break;
    case 0:
      Ints.push_back(B.emitLoad(PickInt(), 8 * R.nextBounded(8), ClassA));
      break;
    case 1:
      Fps.push_back(B.emitFLoad(PickInt(), 8 * R.nextBounded(8), ClassB));
      break;
    case 2:
      B.emitStore(PickFp(), PickInt(), 8 * R.nextBounded(8), ClassB);
      break;
    case 3:
      Ints.push_back(B.emitBinary(Opcode::Add, PickInt(), PickInt()));
      break;
    case 4:
      Fps.push_back(B.emitBinary(Opcode::FMul, PickFp(), PickFp()));
      break;
    case 5:
      Fps.push_back(B.emitFMadd(PickFp(), PickFp(), PickFp()));
      break;
    default:
      B.emitStore(PickInt(), PickInt(), 8 * R.nextBounded(8), ClassA);
      break;
    }
  }
  // Store a digest so the memory image reflects the whole computation.
  Reg Base = B.emitLoadImm(4096);
  B.emitStore(Fps.back(), Base, 0, ClassB);
  B.emitStore(Ints.back(), Base, 8, ClassA);
}

} // namespace

class RegAllocPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegAllocPropertyTest, AllocationPreservesSemanticsUnderPressure) {
  Rng R(GetParam());
  Function F("rand");
  BasicBlock &BB = F.addBlock("b");
  buildRandomProgram(F, BB, R, 60);

  BasicBlock Original = BB;
  RegAllocResult Alloc = allocateRegisters(F, BB, tinyTarget());
  EXPECT_TRUE(fullyPhysical(BB));
  EXPECT_TRUE(verifyClean(verifyBlock(BB)));
  expectSemanticsPreserved(F, Original, BB, Alloc);
}

TEST_P(RegAllocPropertyTest, AllocationPreservesSemanticsDefaultTarget) {
  Rng R(GetParam() ^ 0xFEED);
  Function F("rand");
  BasicBlock &BB = F.addBlock("b");
  buildRandomProgram(F, BB, R, 80);

  BasicBlock Original = BB;
  RegAllocResult Alloc = allocateRegisters(F, BB);
  EXPECT_TRUE(fullyPhysical(BB));
  expectSemanticsPreserved(F, Original, BB, Alloc);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, RegAllocPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 111));
