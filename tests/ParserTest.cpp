//===- tests/ParserTest.cpp - Unit tests for the .bsir parser -------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/IrPrinter.h"
#include "parser/Lexer.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

using namespace bsched;

//===----------------------------------------------------------------------===
// Lexer
//===----------------------------------------------------------------------===

TEST(LexerTest, Punctuation) {
  Lexer L("{ } [ ] = , + - ! @");
  EXPECT_EQ(L.next().Kind, TokenKind::LBrace);
  EXPECT_EQ(L.next().Kind, TokenKind::RBrace);
  EXPECT_EQ(L.next().Kind, TokenKind::LBracket);
  EXPECT_EQ(L.next().Kind, TokenKind::RBracket);
  EXPECT_EQ(L.next().Kind, TokenKind::Equals);
  EXPECT_EQ(L.next().Kind, TokenKind::Comma);
  EXPECT_EQ(L.next().Kind, TokenKind::Plus);
  EXPECT_EQ(L.next().Kind, TokenKind::Minus);
  EXPECT_EQ(L.next().Kind, TokenKind::Bang);
  EXPECT_EQ(L.next().Kind, TokenKind::At);
  EXPECT_EQ(L.next().Kind, TokenKind::Eof);
}

TEST(LexerTest, Identifiers) {
  Lexer L("func fadd loop_1 a.b");
  Token T = L.next();
  EXPECT_EQ(T.Kind, TokenKind::Ident);
  EXPECT_EQ(T.Text, "func");
  EXPECT_EQ(L.next().Text, "fadd");
  EXPECT_EQ(L.next().Text, "loop_1");
  EXPECT_EQ(L.next().Text, "a.b");
}

TEST(LexerTest, Numbers) {
  Lexer L("42 3.5 2e3 1.5e-2 7");
  Token T = L.next();
  EXPECT_EQ(T.Kind, TokenKind::Int);
  EXPECT_EQ(T.IntValue, 42u);
  T = L.next();
  EXPECT_EQ(T.Kind, TokenKind::Float);
  EXPECT_DOUBLE_EQ(T.FloatValue, 3.5);
  T = L.next();
  EXPECT_EQ(T.Kind, TokenKind::Float);
  EXPECT_DOUBLE_EQ(T.FloatValue, 2000.0);
  T = L.next();
  EXPECT_EQ(T.Kind, TokenKind::Float);
  EXPECT_DOUBLE_EQ(T.FloatValue, 0.015);
  T = L.next();
  EXPECT_EQ(T.Kind, TokenKind::Int);
  EXPECT_EQ(T.IntValue, 7u);
}

TEST(LexerTest, Registers) {
  Lexer L("%i0 %f12 $i3 $f1");
  Token T = L.next();
  EXPECT_EQ(T.Kind, TokenKind::RegTok);
  EXPECT_EQ(T.RegValue, Reg::makeVirtual(RegClass::Int, 0));
  EXPECT_EQ(L.next().RegValue, Reg::makeVirtual(RegClass::Fp, 12));
  EXPECT_EQ(L.next().RegValue, Reg::makePhysical(RegClass::Int, 3));
  EXPECT_EQ(L.next().RegValue, Reg::makePhysical(RegClass::Fp, 1));
}

TEST(LexerTest, CommentsSkipped) {
  Lexer L("a # comment to end\nb // other comment\nc");
  EXPECT_EQ(L.next().Text, "a");
  EXPECT_EQ(L.next().Text, "b");
  EXPECT_EQ(L.next().Text, "c");
  EXPECT_EQ(L.next().Kind, TokenKind::Eof);
}

TEST(LexerTest, LineAndColumnTracking) {
  Lexer L("a\n  bb");
  Token A = L.next();
  EXPECT_EQ(A.Line, 1u);
  EXPECT_EQ(A.Col, 1u);
  Token B = L.next();
  EXPECT_EQ(B.Line, 2u);
  EXPECT_EQ(B.Col, 3u);
}

TEST(LexerTest, MalformedRegisterIsError) {
  Lexer L("%x1");
  EXPECT_EQ(L.next().Kind, TokenKind::Error);
}

//===----------------------------------------------------------------------===
// Parser: valid inputs
//===----------------------------------------------------------------------===

namespace {

const char *SampleKernel = R"(
# A small kernel exercising every operand shape.
func @saxpy {
block entry freq 100 {
  %i0 = li 1000
  %i1 = addi %i0, 8
  %f0 = fload [%i0 + 0] !x
  %f1 = fload [%i1 + 0] !y
  %f2 = fli 2.5
  %f3 = fmadd %f2, %f0, %f1
  fstore %f3, [%i1 + 0] !y
  ret
}
}
)";

} // namespace

TEST(ParserTest, ParsesSampleKernel) {
  ParseResult R = parseIr(SampleKernel);
  ASSERT_TRUE(R.ok()) << (R.Diags.empty() ? "" : R.Diags[0].str());
  ASSERT_EQ(R.Functions.size(), 1u);
  const Function &F = R.Functions[0];
  EXPECT_EQ(F.name(), "saxpy");
  ASSERT_EQ(F.numBlocks(), 1u);
  EXPECT_EQ(F.block(0).size(), 8u);
  EXPECT_DOUBLE_EQ(F.block(0).frequency(), 100.0);
  EXPECT_EQ(F.numAliasClasses(), 2u);
}

TEST(ParserTest, AliasClassesInterned) {
  ErrorOr<Function> F = parseSingleFunction(SampleKernel);
  ASSERT_TRUE(F.has_value());
  // !x -> 0, !y -> 1 in first-appearance order.
  EXPECT_EQ((*F).block(0)[2].aliasClass(), 0);
  EXPECT_EQ((*F).block(0)[3].aliasClass(), 1);
  EXPECT_EQ((*F).block(0)[6].aliasClass(), 1);
}

TEST(ParserTest, NumericAliasClasses) {
  const char *Src = "func @f { block b { %i0 = li 0\n"
                    "%i1 = load [%i0 + 0] !7\nret } }";
  ErrorOr<Function> F = parseSingleFunction(Src);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ((*F).block(0)[1].aliasClass(), 7);
}

TEST(ParserTest, NegativeOffsetsAndImmediates) {
  const char *Src = "func @f { block b {\n"
                    "%i0 = li -5\n"
                    "%i1 = addi %i0, -3\n"
                    "%f0 = fli -2.5\n"
                    "%i2 = load [%i0 - 16] !m\n"
                    "ret } }";
  ErrorOr<Function> F = parseSingleFunction(Src);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ((*F).block(0)[0].imm(), -5);
  EXPECT_EQ((*F).block(0)[1].imm(), -3);
  EXPECT_DOUBLE_EQ((*F).block(0)[2].fpImm(), -2.5);
  EXPECT_EQ((*F).block(0)[3].imm(), -16);
}

TEST(ParserTest, BranchTargetsByName) {
  const char *Src = R"(
func @f {
block head {
  %i0 = li 0
  bz %i0, @exit
}
block body {
  jump @head
}
block exit {
  ret
}
}
)";
  ErrorOr<Function> F = parseSingleFunction(Src);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ((*F).block(0)[1].imm(), 2); // @exit
  EXPECT_EQ((*F).block(1)[0].imm(), 0); // @head
}

TEST(ParserTest, BranchTargetsByIndex) {
  const char *Src = "func @f { block a { jump 1 } block b { ret } }";
  ErrorOr<Function> F = parseSingleFunction(Src);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ((*F).block(0)[0].imm(), 1);
}

TEST(ParserTest, MultipleFunctions) {
  const char *Src = "func @a { block x { ret } } func @b { block y { ret } }";
  ParseResult R = parseIr(Src);
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Functions.size(), 2u);
  EXPECT_EQ(R.Functions[0].name(), "a");
  EXPECT_EQ(R.Functions[1].name(), "b");
}

TEST(ParserTest, ExplicitRegistersReserveCounters) {
  const char *Src = "func @f { block b { %i9 = li 1\nret } }";
  ErrorOr<Function> F = parseSingleFunction(Src);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->makeVirtualReg(RegClass::Int).id(), 10u);
}

TEST(ParserTest, PhysicalRegistersAccepted) {
  const char *Src = "func @f { block b { $i0 = li 1\n$i1 = mov $i0\nret } }";
  ErrorOr<Function> F = parseSingleFunction(Src);
  ASSERT_TRUE(F.has_value());
  EXPECT_TRUE((*F).block(0)[0].dest().isPhysical());
}

TEST(ParserTest, PrintParseRoundTrip) {
  ErrorOr<Function> F = parseSingleFunction(SampleKernel);
  ASSERT_TRUE(F.has_value());
  std::string Printed = printFunction(*F);
  ErrorOr<Function> F2 = parseSingleFunction(Printed);
  ASSERT_TRUE(F2.has_value()) << F2.errorText() << "\n" << Printed;
  EXPECT_EQ(printFunction(*F2), Printed);
}

//===----------------------------------------------------------------------===
// Parser: diagnostics
//===----------------------------------------------------------------------===

TEST(ParserDiagTest, UnknownMnemonic) {
  ParseResult R = parseIr("func @f { block b { %i0 = frobnicate %i1 } }");
  EXPECT_FALSE(R.ok());
  ASSERT_FALSE(R.Diags.empty());
  EXPECT_NE(R.Diags[0].Message.find("unknown mnemonic"), std::string::npos);
}

TEST(ParserDiagTest, WrongRegisterClass) {
  ParseResult R = parseIr("func @f { block b { %i0 = fadd %f0, %f1\nret } }");
  EXPECT_FALSE(R.ok());
}

TEST(ParserDiagTest, WrongSourceClass) {
  ParseResult R = parseIr("func @f { block b { %f0 = fadd %i0, %f1\nret } }");
  EXPECT_FALSE(R.ok());
}

TEST(ParserDiagTest, MissingDestination) {
  ParseResult R = parseIr("func @f { block b { add %i0, %i1\nret } }");
  EXPECT_FALSE(R.ok());
}

TEST(ParserDiagTest, UnexpectedDestination) {
  ParseResult R = parseIr("func @f { block b { %i0 = ret } }");
  EXPECT_FALSE(R.ok());
}

TEST(ParserDiagTest, UnknownBranchTarget) {
  ParseResult R = parseIr("func @f { block b { jump @nowhere } }");
  EXPECT_FALSE(R.ok());
  ASSERT_FALSE(R.Diags.empty());
  bool Found = false;
  for (const ParseDiag &D : R.Diags)
    Found |= D.Message.find("unknown branch target") != std::string::npos;
  EXPECT_TRUE(Found);
}

TEST(ParserDiagTest, MissingAliasClass) {
  ParseResult R =
      parseIr("func @f { block b { %i1 = load [%i0 + 0]\nret } }");
  EXPECT_FALSE(R.ok());
}

TEST(ParserDiagTest, RejectsInfiniteOrHugeFrequency) {
  // 1e400 overflows to inf; 1e308 is finite but frequency x size is not.
  for (const char *Freq : {"1e400", "1e308"}) {
    ParseResult R = parseIr(std::string("func @f { block b freq ") + Freq +
                            " { ret } }");
    EXPECT_FALSE(R.ok()) << Freq;
    ASSERT_FALSE(R.Diags.empty()) << Freq;
    EXPECT_EQ(R.Diags[0].Code, DiagCode::ParseBadImmediate) << Freq;
  }
  // The cap itself is accepted.
  ParseResult R = parseIr("func @f { block b freq 1e12 { ret } }");
  ASSERT_TRUE(R.ok());
  EXPECT_DOUBLE_EQ(R.Functions[0].block(0).frequency(), 1e12);
}

TEST(ParserDiagTest, DiagnosticCarriesLocation) {
  ParseResult R = parseIr("func @f { block b {\n  %i0 = bogus\n} }");
  ASSERT_FALSE(R.Diags.empty());
  EXPECT_EQ(R.Diags[0].Line, 2u);
  EXPECT_NE(R.Diags[0].str().find("line 2"), std::string::npos);
}

TEST(ParserDiagTest, EmptyInputYieldsNoFunctions) {
  ParseResult R = parseIr("");
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.Functions.empty());
}

TEST(ParserDiagTest, SingleFunctionHelperRejectsTwo) {
  ErrorOr<Function> F = parseSingleFunction(
      "func @a { block x { ret } } func @b { block y { ret } }");
  EXPECT_FALSE(F.has_value());
  ASSERT_FALSE(F.errors().empty());
  EXPECT_EQ(F.errors()[0].Code, DiagCode::ParseNotSingleFunction);
  EXPECT_FALSE(F.errorText().empty());
}

TEST(ParserDiagTest, RecoversAndParsesNextBlock) {
  const char *Src = R"(
func @f {
block bad {
  %i0 = frobnicate
}
block good {
  ret
}
}
)";
  ParseResult R = parseIr(Src);
  EXPECT_FALSE(R.ok());
  // Despite the error, the parser recovered and saw both blocks.
  ASSERT_EQ(R.Functions.size(), 1u);
  EXPECT_EQ(R.Functions[0].numBlocks(), 2u);
}
