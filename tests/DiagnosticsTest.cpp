//===- tests/DiagnosticsTest.cpp - Golden-message diagnostic tests --------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// Golden tests for the recoverable-error infrastructure: exact messages,
// stable BS codes, and 1-based source locations for lexer, parser,
// verifier, and frontend failures. These messages are part of the public
// surface — a change here is a user-visible break, not a refactor.
//
//===----------------------------------------------------------------------===//

#include "frontend/KernelLang.h"
#include "ir/IrPrinter.h"
#include "ir/IrVerifier.h"
#include "parser/Parser.h"
#include "support/Diagnostic.h"
#include "support/ErrorOr.h"

#include <string>

#include <gtest/gtest.h>

using namespace bsched;

namespace {

Reg vi(unsigned Id) { return Reg::makeVirtual(RegClass::Int, Id); }
Reg vf(unsigned Id) { return Reg::makeVirtual(RegClass::Fp, Id); }

const Diagnostic *firstError(const std::vector<Diagnostic> &Diags) {
  for (const Diagnostic &D : Diags)
    if (D.isError())
      return &D;
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, FormattedCarriesFileLocationSeverityAndCode) {
  Diagnostic D{3, 5, "unknown mnemonic 'bogus'", Severity::Error,
               DiagCode::ParseUnknownMnemonic};
  EXPECT_EQ(D.formatted("k.bsir"),
            "k.bsir:3:5: error[BS201]: unknown mnemonic 'bogus'");
  EXPECT_EQ(D.formatted(), "3:5: error[BS201]: unknown mnemonic 'bogus'");
  EXPECT_EQ(D.str(), "line 3, col 5: unknown mnemonic 'bogus'");
}

TEST(DiagnosticsTest, FormattedWithoutLocationOrCode) {
  Diagnostic W{0, 0, "block 'b' is empty", Severity::Warning,
               DiagCode::VerifyEmptyBlock};
  EXPECT_EQ(W.formatted("w.bsir"), "w.bsir: warning[BS307]: block 'b' is empty");
  EXPECT_EQ(W.formatted(), "warning[BS307]: block 'b' is empty");
  EXPECT_EQ(W.str(), "block 'b' is empty");

  Diagnostic Plain{0, 0, "plain", Severity::Error, DiagCode::Unknown};
  EXPECT_EQ(Plain.formatted(), "error: plain");
}

TEST(DiagnosticsTest, EngineCollectsAndDistinguishesSeverities) {
  DiagnosticEngine Engine;
  EXPECT_TRUE(Engine.empty());
  Engine.warning(DiagCode::VerifyEmptyBlock, 0, 0, "w");
  EXPECT_FALSE(Engine.hasErrors());
  Engine.error(DiagCode::PipelineBadConfig, 0, 0, "e");
  EXPECT_TRUE(Engine.hasErrors());
  EXPECT_EQ(Engine.errorCount(), 1u);
  std::vector<Diagnostic> Taken = Engine.take();
  EXPECT_EQ(Taken.size(), 2u);
  EXPECT_TRUE(Engine.empty());
}

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, LexerUnexpectedCharacter) {
  ParseResult R = parseIr("func @f { block b {\n  ^ ret\n} }");
  ASSERT_FALSE(R.ok());
  const Diagnostic *D = firstError(R.Diags);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Code, DiagCode::LexUnexpectedChar);
  EXPECT_EQ(D->Message, "unexpected character");
  EXPECT_EQ(D->Line, 2u);
  EXPECT_EQ(D->Col, 3u);
}

TEST(DiagnosticsTest, LexerBadRegisterClass) {
  ParseResult R = parseIr("func @f { block b {\n%x0 = li 0\nret } }");
  ASSERT_FALSE(R.ok());
  const Diagnostic *D = firstError(R.Diags);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Code, DiagCode::LexBadRegisterClass);
  EXPECT_EQ(D->Message, "expected 'i' or 'f' after register sigil");
  EXPECT_EQ(D->Line, 2u);
}

TEST(DiagnosticsTest, LexerBadRegisterNumber) {
  ParseResult R = parseIr("func @f { block b {\n%i = li 0\nret } }");
  ASSERT_FALSE(R.ok());
  const Diagnostic *D = firstError(R.Diags);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Code, DiagCode::LexBadRegisterNumber);
  EXPECT_EQ(D->Message, "expected register number");

  // Numbers past the 29-bit encoding are rejected at the register, not
  // wrapped onto a smaller one (2^32 used to become %i0, 2^30 $i0).
  for (const char *Number :
       {"536870912", "1073741824", "4294967296", "1234567890123456789012345"})
    for (const char *Sigil : {"%i", "$f"}) {
      const std::string Src = std::string("func @f { block b {\n") + Sigil +
                              Number + " = li 8192\nret } }";
      ParseResult Big = parseIr(Src);
      ASSERT_FALSE(Big.ok()) << Src;
      const Diagnostic *E = firstError(Big.Diags);
      ASSERT_NE(E, nullptr) << Src;
      EXPECT_EQ(E->Code, DiagCode::LexBadRegisterNumber) << Src;
      EXPECT_EQ(E->Message, "register number too large (at most 536870911)");
      EXPECT_EQ(E->Line, 2u);
      EXPECT_EQ(E->Col, 1u);
    }

  // The largest encodable numbers still parse and print back unchanged.
  ErrorOr<Function> Max = parseSingleFunction(
      "func @f { block b {\n%i536870911 = li 1\n$f536870911 = fli 2.5\n"
      "ret } }");
  ASSERT_TRUE(Max.has_value()) << Max.errorText();
  EXPECT_EQ(Max->block(0)[0].dest(),
            Reg::makeVirtual(RegClass::Int, Reg::MaxId));
  EXPECT_EQ(Max->block(0)[1].dest(),
            Reg::makePhysical(RegClass::Fp, Reg::MaxId));
  const std::string Printed = printFunction(*Max);
  EXPECT_NE(Printed.find("%i536870911 = li 1"), std::string::npos)
      << Printed;
  EXPECT_NE(Printed.find("$f536870911 = fli"), std::string::npos) << Printed;
  ErrorOr<Function> Reparsed = parseSingleFunction(Printed);
  ASSERT_TRUE(Reparsed.has_value()) << Reparsed.errorText();
  EXPECT_EQ(printFunction(*Reparsed), Printed);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, ParserUnknownMnemonic) {
  ParseResult R = parseIr("func @f { block b {\n%i0 = bogus 1\nret } }");
  ASSERT_FALSE(R.ok());
  const Diagnostic *D = firstError(R.Diags);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Code, DiagCode::ParseUnknownMnemonic);
  EXPECT_EQ(D->Message, "unknown mnemonic 'bogus'");
  EXPECT_EQ(D->Line, 2u);
}

TEST(DiagnosticsTest, ParserExpectedFunc) {
  ParseResult R = parseIr("flub @f { }");
  ASSERT_FALSE(R.ok());
  const Diagnostic *D = firstError(R.Diags);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Code, DiagCode::ParseExpectedToken);
  EXPECT_EQ(D->Message, "expected 'func'");
}

TEST(DiagnosticsTest, ParserNotSingleFunction) {
  ErrorOr<Function> F =
      parseSingleFunction("func @a { block b { ret } }\n"
                          "func @c { block d { ret } }");
  ASSERT_FALSE(F.has_value());
  ASSERT_FALSE(F.errors().empty());
  EXPECT_EQ(F.errors()[0].Code, DiagCode::ParseNotSingleFunction);
  EXPECT_EQ(F.errors()[0].Message, "expected exactly one function, found 2");
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, VerifierBranchOutOfRange) {
  Function F("f");
  BasicBlock &BB = F.addBlock("entry");
  BB.append(Instruction::makeLoadImm(vi(0), 0));
  BB.append(Instruction::makeJump(7));
  std::vector<Diagnostic> Diags = verifyFunction(F);
  const Diagnostic *D = firstError(Diags);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Code, DiagCode::VerifyBranchOutOfRange);
  EXPECT_EQ(D->Message, "block 'entry', instruction 1: branch target 7 "
                        "out of range (function has 1 blocks)");
}

TEST(DiagnosticsTest, VerifierOperandClassMismatch) {
  Function F("f");
  BasicBlock &BB = F.addBlock("b");
  // fadd expects two fp sources; source 0 is an int register.
  BB.append(Instruction::makeBinary(Opcode::FAdd, vf(0), vi(1), vf(2)));
  BB.append(Instruction::makeRet());
  std::vector<Diagnostic> Diags = verifyFunction(F);
  const Diagnostic *D = firstError(Diags);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Code, DiagCode::VerifyOperandClass);
  EXPECT_EQ(D->Message, "block 'b', instruction 0: source operand 0 "
                        "register class does not match opcode");
}

TEST(DiagnosticsTest, VerifierDestClassMismatch) {
  Function F("f");
  BasicBlock &BB = F.addBlock("b");
  // add produces an int result; the destination is an fp register.
  BB.append(Instruction::makeBinary(Opcode::Add, vf(0), vi(1), vi(2)));
  BB.append(Instruction::makeRet());
  std::vector<Diagnostic> Diags = verifyFunction(F);
  const Diagnostic *D = firstError(Diags);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Code, DiagCode::VerifyOperandClass);
  EXPECT_EQ(D->Message, "block 'b', instruction 0: destination register "
                        "class does not match opcode");
}

TEST(DiagnosticsTest, VerifierMissingAliasClass) {
  Function F("f");
  BasicBlock &BB = F.addBlock("b");
  BB.append(Instruction::makeLoadImm(vi(0), 0));
  BB.append(Instruction::makeLoad(Opcode::FLoad, vf(0), vi(0), 8, -1));
  BB.append(Instruction::makeRet());
  std::vector<Diagnostic> Diags = verifyFunction(F);
  const Diagnostic *D = firstError(Diags);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Code, DiagCode::VerifyMissingAliasClass);
  EXPECT_EQ(D->Message, "block 'b', instruction 1: memory operation "
                        "without an alias class");
}

TEST(DiagnosticsTest, VerifierEmptyBlockIsWarningNotError) {
  Function F("f");
  F.addBlock("b");
  std::vector<Diagnostic> Diags = verifyFunction(F);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Sev, Severity::Warning);
  EXPECT_EQ(Diags[0].Code, DiagCode::VerifyEmptyBlock);
  EXPECT_EQ(Diags[0].Message, "block 'b' is empty");
  EXPECT_TRUE(verifyClean(Diags)); // Warnings do not fail verification.
}

TEST(DiagnosticsTest, VerifierNoBlocksIsWarning) {
  Function F("f");
  std::vector<Diagnostic> Diags = verifyFunction(F);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Sev, Severity::Warning);
  EXPECT_EQ(Diags[0].Code, DiagCode::VerifyNoBlocks);
  EXPECT_EQ(Diags[0].Message, "function 'f' has no blocks");
}

//===----------------------------------------------------------------------===//
// Frontend
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, FrontendSyntaxError) {
  KernelLangResult R = compileKernelLang("routine k() { }");
  EXPECT_FALSE(R.ok());
  const Diagnostic *D = firstError(R.Diags);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Code, DiagCode::FrontendSyntax);
  EXPECT_EQ(D->Message, "expected 'kernel'");
}

TEST(DiagnosticsTest, FrontendSemanticError) {
  KernelLangResult R =
      compileKernelLang("kernel k(a) freq 10 {\n  a[0] = s;\n}");
  EXPECT_FALSE(R.ok());
  const Diagnostic *D = firstError(R.Diags);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Code, DiagCode::FrontendSemantic);
  EXPECT_EQ(D->Message, "scalar 's' read before assignment");
}
