//===- tests/FrontendTest.cpp - Kernel-language frontend tests ------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// End-to-end correctness: kernels are compiled to IR, the IR is executed
// by the reference interpreter against seeded array memory, and the
// results are compared with values computed directly in the test.
//
//===----------------------------------------------------------------------===//

#include "frontend/KernelLang.h"
#include "ir/Interpreter.h"
#include "ir/IrBuilder.h"
#include "ir/IrVerifier.h"
#include "pipeline/Pipeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace bsched;

namespace {

/// Seeds array element \p Index of \p A with \p Value.
void seed(Interpreter &I, const ArrayBinding &A, int64_t Index,
          double Value) {
  // Store through the interpreter's raw memory by running a tiny block.
  Function F("seed");
  BasicBlock &BB = F.addBlock("b");
  IrBuilder B(F, BB);
  Reg Base = B.emitLoadImm(A.BaseAddress);
  Reg V = B.emitFLoadImm(Value);
  B.emitStore(V, Base, 8 * Index, A.Alias);
  I.run(BB);
}

/// Reads array element \p Index of \p A as a double.
double peek(const Interpreter &I, const ArrayBinding &A, int64_t Index) {
  auto Image = I.memoryImage();
  auto It = Image.find({A.Alias, A.BaseAddress + 8 * Index});
  if (It == Image.end())
    return std::nan("");
  double D;
  std::memcpy(&D, &It->second, sizeof(D));
  return D;
}

} // namespace

TEST(FrontendTest, CompilesMinimalKernel) {
  KernelLangResult R = compileKernelLang(
      "kernel k(a) { a[0] = 1.5; }");
  ASSERT_TRUE(R.ok()) << (R.Diags.empty() ? "" : R.Diags[0].str());
  ASSERT_EQ(R.Program->numBlocks(), 1u);
  EXPECT_EQ(R.Program->block(0).name(), "k");
  EXPECT_TRUE(verifyClean(verifyFunction(*R.Program)));
  EXPECT_NE(R.findArray("a"), nullptr);
  EXPECT_EQ(R.findArray("zzz"), nullptr);
}

TEST(FrontendTest, ConstantAssignmentExecutes) {
  KernelLangResult R = compileKernelLang(
      "kernel k(a) { a[3] = 2.5 * 4.0 + 1.0; }");
  ASSERT_TRUE(R.ok());
  Interpreter I;
  I.run(R.Program->block(0));
  EXPECT_DOUBLE_EQ(peek(I, *R.findArray("a"), 3), 11.0);
}

TEST(FrontendTest, SaxpyLoopComputesCorrectValues) {
  KernelLangResult R = compileKernelLang(R"(
kernel saxpy(x, y) freq 10 {
  for i = 0 to 4 {
    y[i] = 2.0 * x[i] + y[i];
  }
}
)");
  ASSERT_TRUE(R.ok()) << (R.Diags.empty() ? "" : R.Diags[0].str());

  Interpreter I;
  const ArrayBinding *X = R.findArray("x");
  const ArrayBinding *Y = R.findArray("y");
  ASSERT_TRUE(X && Y);
  for (int K = 0; K != 4; ++K) {
    seed(I, *X, K, 1.0 + K);
    seed(I, *Y, K, 10.0 * K);
  }
  I.run(R.Program->block(0));
  for (int K = 0; K != 4; ++K)
    EXPECT_DOUBLE_EQ(peek(I, *Y, K), 2.0 * (1.0 + K) + 10.0 * K) << K;
}

TEST(FrontendTest, StencilWithNeighborsAndScalarReduction) {
  KernelLangResult R = compileKernelLang(R"(
kernel smooth(a, b) {
  s = 0.0;
  for i = 0 to 3 {
    b[i] = 0.25*a[i-1] + 0.5*a[i] + 0.25*a[i+1];
    s = s + b[i];
  }
  norm[0] = s;
}
)");
  ASSERT_TRUE(R.ok()) << (R.Diags.empty() ? "" : R.Diags[0].str());

  Interpreter I;
  const ArrayBinding *A = R.findArray("a");
  ASSERT_TRUE(A);
  double Vals[] = {4.0, 8.0, 12.0, 16.0, 20.0};
  for (int K = -1; K <= 3; ++K)
    seed(I, *A, K, Vals[K + 1]);
  I.run(R.Program->block(0));

  const ArrayBinding *BArr = R.findArray("b");
  double Expect0 = 0.25 * 4 + 0.5 * 8 + 0.25 * 12;   // 8.
  double Expect2 = 0.25 * 12 + 0.5 * 16 + 0.25 * 20; // 16.
  EXPECT_DOUBLE_EQ(peek(I, *BArr, 0), Expect0);
  EXPECT_DOUBLE_EQ(peek(I, *BArr, 2), Expect2);
  // The scalar sum lands in norm[0] and in smooth.__result slot 0.
  EXPECT_DOUBLE_EQ(peek(I, *R.findArray("norm"), 0), 8 + 12 + 16);
  EXPECT_DOUBLE_EQ(peek(I, *R.findArray("smooth.__result"), 0),
                   8.0 + 12 + 16);
}

TEST(FrontendTest, UnrollScalesFrequency) {
  KernelLangResult R = compileKernelLang(
      "kernel k(a) freq 100 { for i = 0 to 64 unroll 4 { a[i] = 1.0; } }");
  ASSERT_TRUE(R.ok());
  // 64 trips at unroll 4 -> 16 block executions x kernel freq 100.
  EXPECT_DOUBLE_EQ(R.Program->block(0).frequency(), 1600.0);
}

TEST(FrontendTest, SlidingWindowReusesLoads) {
  // a[i+1] in one iteration is a[i] in the next: with the value cache the
  // 3-tap stencil over 4 iterations loads 6 distinct elements, not 12.
  KernelLangResult R = compileKernelLang(R"(
kernel smooth(a, b) {
  for i = 0 to 4 {
    b[i] = a[i-1] + a[i] + a[i+1];
  }
}
)");
  ASSERT_TRUE(R.ok());
  unsigned Loads = 0;
  for (const Instruction &I : R.Program->block(0))
    Loads += I.isLoad();
  EXPECT_EQ(Loads, 6u);
}

TEST(FrontendTest, StoreInvalidatesOnlyTheStoredElement) {
  // b[i] is stored then b[i] is reloaded (forwarded); a[i] stays cached.
  KernelLangResult R = compileKernelLang(R"(
kernel k(a, b) {
  for i = 0 to 2 {
    b[i] = a[i] * 2.0;
    c[i] = b[i] + a[i];
  }
}
)");
  ASSERT_TRUE(R.ok());
  unsigned Loads = 0;
  for (const Instruction &I : R.Program->block(0))
    Loads += I.isLoad();
  // Only the two a[i] loads: b[i] forwards from the store.
  EXPECT_EQ(Loads, 2u);

  Interpreter I;
  const ArrayBinding *A = R.findArray("a");
  seed(I, *A, 0, 3.0);
  seed(I, *A, 1, 5.0);
  I.run(R.Program->block(0));
  EXPECT_DOUBLE_EQ(peek(I, *R.findArray("c"), 0), 9.0);
  EXPECT_DOUBLE_EQ(peek(I, *R.findArray("c"), 1), 15.0);
}

TEST(FrontendTest, ConservativeAliasingClearsCacheOnStores) {
  const char *Src = R"(
kernel k(a, b) {
  for i = 0 to 2 {
    b[i] = a[i] * 2.0;
    c[i] = b[i] + a[i];
  }
}
)";
  KernelLangOptions Conservative;
  Conservative.FortranAliasing = false;
  KernelLangResult R = compileKernelLang(Src, Conservative);
  ASSERT_TRUE(R.ok());
  unsigned Loads = 0;
  for (const Instruction &I : R.Program->block(0))
    Loads += I.isLoad();
  // The store to b may alias a, so a[i] must be reloaded: more loads.
  EXPECT_GT(Loads, 2u);
}

TEST(FrontendTest, MultipleKernelsBecomeBlocks) {
  KernelLangResult R = compileKernelLang(R"(
kernel first(a) freq 5 { a[0] = 1.0; }
kernel second(b) freq 7 { b[0] = 2.0; }
)");
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Program->numBlocks(), 2u);
  EXPECT_DOUBLE_EQ(R.Program->block(0).frequency(), 5.0);
  EXPECT_DOUBLE_EQ(R.Program->block(1).frequency(), 7.0);
}

TEST(FrontendTest, CompiledKernelSurvivesThePipeline) {
  KernelLangResult R = compileKernelLang(R"(
kernel dot(x, y) freq 500 {
  s = 0.0;
  for i = 0 to 8 unroll 4 {
    s = s + x[i] * y[i];
  }
  out[0] = s;
}
)");
  ASSERT_TRUE(R.ok());
  PipelineConfig Config;
  Config.Policy = SchedulerPolicy::Balanced;
  CompiledFunction C = runPipeline(*R.Program, Config).value();
  EXPECT_TRUE(verifyClean(verifyFunction(C.Compiled)));
  EXPECT_GT(C.DynamicInstructions, 0.0);
}

//===----------------------------------------------------------------------===
// Diagnostics
//===----------------------------------------------------------------------===

TEST(FrontendDiagTest, RejectsNestedLoops) {
  KernelLangResult R = compileKernelLang(
      "kernel k(a) { for i = 0 to 4 { for j = 0 to 4 { a[i] = 1.0; } } }");
  EXPECT_FALSE(R.ok());
}

TEST(FrontendDiagTest, RejectsForeignSubscriptVariable) {
  KernelLangResult R = compileKernelLang(
      "kernel k(a) { for i = 0 to 4 { a[j] = 1.0; } }");
  EXPECT_FALSE(R.ok());
}

TEST(FrontendDiagTest, RejectsUninitializedScalar) {
  KernelLangResult R = compileKernelLang("kernel k(a) { a[0] = s + 1.0; }");
  EXPECT_FALSE(R.ok());
  ASSERT_FALSE(R.Diags.empty());
  EXPECT_NE(R.Diags[0].Message.find("before assignment"),
            std::string::npos);
}

TEST(FrontendDiagTest, RejectsBadBounds) {
  KernelLangResult R =
      compileKernelLang("kernel k(a) { for i = 4 to 4 { a[i] = 1.0; } }");
  EXPECT_FALSE(R.ok());
}

TEST(FrontendDiagTest, RejectsLoopVarSubscriptOutsideLoop) {
  KernelLangResult R = compileKernelLang("kernel k(a) { a[i] = 1.0; }");
  EXPECT_FALSE(R.ok());
}

TEST(FrontendDiagTest, RejectsInfiniteOrHugeFrequency) {
  for (const char *Freq : {"1e400", "1e308"}) {
    KernelLangResult R = compileKernelLang(
        std::string("kernel k(a) freq ") + Freq + " { a[0] = 1.0; }");
    EXPECT_FALSE(R.ok()) << Freq;
    ASSERT_FALSE(R.Diags.empty()) << Freq;
    EXPECT_EQ(R.Diags[0].Code, DiagCode::ParseBadImmediate) << Freq;
  }
}

TEST(FrontendDiagTest, MissingSemicolon) {
  KernelLangResult R = compileKernelLang("kernel k(a) { a[0] = 1.0 }");
  EXPECT_FALSE(R.ok());
}
