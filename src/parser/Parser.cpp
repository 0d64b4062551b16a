//===- parser/Parser.cpp - Parser for the .bsir format --------------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "ir/IrVerifier.h"
#include "parser/Lexer.h"
#include "support/FailPoint.h"
#include "support/ResourceGovernor.h"
#include "support/StringUtils.h"

#include <cassert>

using namespace bsched;

namespace {

/// Recursive-descent parser with single-token lookahead and per-block error
/// recovery (a bad instruction skips to the next line-starting construct).
class Parser {
public:
  explicit Parser(std::string_view Buffer,
                  ResourceGovernor *Governor = nullptr)
      : Lex(Buffer), Governor(Governor) {
    bump();
  }

  ParseResult run() {
    ParseResult Result;
    while (!Tok.is(TokenKind::Eof) && !Tripped) {
      if (Tok.is(TokenKind::Ident) && Tok.Text == "func") {
        if (std::optional<Function> F = parseFunction())
          Result.Functions.push_back(std::move(*F));
      } else {
        error(DiagCode::ParseExpectedToken, "expected 'func'");
        bump();
      }
    }
    Result.Diags = Engine.take();
    return Result;
  }

private:
  //===--------------------------------------------------------------------===
  // Token plumbing
  //===--------------------------------------------------------------------===

  void bump() {
    Tok = Lex.next();
    if (Tok.is(TokenKind::Error)) {
      Engine.error(Tok.Code, Tok.Line, Tok.Col, std::string(Tok.Text));
      // Error tokens are pre-consumed by the lexer; fetch the next one.
      Tok = Lex.next();
    }
  }

  bool expect(TokenKind Kind, const char *What) {
    if (Tok.is(Kind)) {
      bump();
      return true;
    }
    error(DiagCode::ParseExpectedToken, std::string("expected ") + What);
    return false;
  }

  void error(DiagCode Code, std::string Message) {
    Engine.error(Code, Tok.Line, Tok.Col, std::move(Message));
  }

  /// Skips tokens until one of the block/function delimiters, for recovery.
  void skipToDelimiter() {
    while (!Tok.is(TokenKind::Eof) && !Tok.is(TokenKind::RBrace) &&
           !(Tok.is(TokenKind::Ident) &&
             (Tok.Text == "block" || Tok.Text == "func")))
      bump();
  }

  //===--------------------------------------------------------------------===
  // Grammar productions
  //===--------------------------------------------------------------------===

  std::optional<Function> parseFunction() {
    bump(); // 'func'
    if (!expect(TokenKind::At, "'@' before function name"))
      return std::nullopt;
    if (!Tok.is(TokenKind::Ident)) {
      error(DiagCode::ParseExpectedToken, "expected function name");
      return std::nullopt;
    }
    Function F(std::string(Tok.Text));
    bump();
    if (!expect(TokenKind::LBrace, "'{'"))
      return std::nullopt;

    BranchFixups.clear();
    while (Tok.is(TokenKind::Ident) && Tok.Text == "block" && !Tripped)
      parseBlock(F);
    if (Tripped)
      return std::nullopt; // Budget trip already reported; abandon parse.
    expect(TokenKind::RBrace, "'}' closing function");

    resolveBranchFixups(F);
    Engine.append(verifyFunction(F));
    return F;
  }

  void parseBlock(Function &F) {
    bump(); // 'block'
    std::string Name = "anon";
    if (Tok.is(TokenKind::Ident)) {
      Name = std::string(Tok.Text);
      bump();
    } else {
      error(DiagCode::ParseExpectedToken, "expected block name");
    }

    double Freq = 1.0;
    if (Tok.is(TokenKind::Ident) && Tok.Text == "freq") {
      bump();
      if (Tok.is(TokenKind::Int) || Tok.is(TokenKind::Float)) {
        Freq = Tok.is(TokenKind::Int) ? static_cast<double>(Tok.IntValue)
                                      : Tok.FloatValue;
        if (!isAcceptedBlockFrequency(Freq)) {
          error(DiagCode::ParseBadImmediate,
                "block frequency must be finite and at most 1e12");
          Freq = 1.0;
        }
        bump();
      } else {
        error(DiagCode::ParseBadImmediate, "expected a number after 'freq'");
      }
    }

    BasicBlock &BB = F.addBlock(Name, Freq);
    BlockIndexByName[Name] = F.numBlocks() - 1;
    if (!expect(TokenKind::LBrace, "'{'")) {
      skipToDelimiter();
      return;
    }

    while (!Tok.is(TokenKind::RBrace) && !Tok.is(TokenKind::Eof)) {
      if (Governor &&
          (!Governor->poll() ||
           !Governor->admit(BudgetKind::BlockInstructions, BB.size()))) {
        Engine.report(Governor->diagnostic("block '" + Name + "'"));
        Tripped = true;
        return;
      }
      if (!parseInstruction(F, BB)) {
        skipToDelimiter();
        break;
      }
    }
    expect(TokenKind::RBrace, "'}' closing block");
  }

  bool parseInstruction(Function &F, BasicBlock &BB) {
    Reg Dst;
    if (Tok.is(TokenKind::RegTok)) {
      Dst = Tok.RegValue;
      noteRegister(F, Dst);
      bump();
      if (!expect(TokenKind::Equals, "'=' after destination register"))
        return false;
    }

    if (!Tok.is(TokenKind::Ident)) {
      error(DiagCode::ParseExpectedToken, "expected an instruction mnemonic");
      return false;
    }
    std::optional<Opcode> MaybeOp = parseOpcode(Tok.Text);
    if (!MaybeOp) {
      error(DiagCode::ParseUnknownMnemonic,
            "unknown mnemonic '" + std::string(Tok.Text) + "'");
      return false;
    }
    Opcode Op = *MaybeOp;
    bump();

    if (opcodeHasDest(Op) != Dst.isValid()) {
      error(DiagCode::ParseBadDestination,
            opcodeHasDest(Op) ? "opcode requires a destination register"
                              : "opcode does not produce a result");
      return false;
    }
    if (Dst.isValid() &&
        (Dst.regClass() == RegClass::Fp) != opcodeDestIsFp(Op)) {
      error(DiagCode::ParseBadDestination,
            "destination register class does not match opcode");
      return false;
    }

    if (isLoadOpcode(Op))
      return parseLoad(F, BB, Op, Dst);
    if (isStoreOpcode(Op))
      return parseStore(F, BB, Op);
    if (isTerminatorOpcode(Op))
      return parseTerminator(F, BB, Op);

    return parseSimple(F, BB, Op, Dst);
  }

  bool parseSimple(Function &F, BasicBlock &BB, Opcode Op, Reg Dst) {
    std::array<Reg, 3> Srcs = {Reg(), Reg(), Reg()};
    unsigned NumSrcs = opcodeNumSrcs(Op);
    for (unsigned I = 0; I != NumSrcs; ++I) {
      if (I != 0 && !expect(TokenKind::Comma, "','"))
        return false;
      if (!parseRegOperand(F, Op, I, Srcs[I]))
        return false;
    }

    int64_t Imm = 0;
    double FpImm = 0.0;
    if (opcodeHasImm(Op)) {
      if (NumSrcs != 0 && !expect(TokenKind::Comma, "','"))
        return false;
      if (!parseSignedInt(Imm))
        return false;
    } else if (opcodeHasFpImm(Op)) {
      if (!parseSignedFloat(FpImm))
        return false;
    }

    BB.append(Instruction(Op, Dst, Srcs, Imm, FpImm));
    return true;
  }

  bool parseLoad(Function &F, BasicBlock &BB, Opcode Op, Reg Dst) {
    Reg Base;
    int64_t Offset = 0;
    AliasClassId Alias = NoAliasClass;
    if (!parseAddress(F, Base, Offset, Alias))
      return false;
    Instruction Load = Instruction::makeLoad(Op, Dst, Base, Offset, Alias);
    // Optional "@N": statically known latency (section 6 extension).
    if (Tok.is(TokenKind::At)) {
      bump();
      if (!Tok.is(TokenKind::Int) || Tok.IntValue == 0) {
        error(DiagCode::ParseBadKnownLatency,
              "expected a positive known latency after '@'");
        return false;
      }
      Load.setKnownLatency(static_cast<unsigned>(Tok.IntValue));
      bump();
    }
    BB.append(std::move(Load));
    return true;
  }

  bool parseStore(Function &F, BasicBlock &BB, Opcode Op) {
    Reg Value;
    if (!parseRegOperand(F, Op, 0, Value))
      return false;
    if (!expect(TokenKind::Comma, "','"))
      return false;
    Reg Base;
    int64_t Offset = 0;
    AliasClassId Alias = NoAliasClass;
    if (!parseAddress(F, Base, Offset, Alias))
      return false;
    BB.append(Instruction::makeStore(Op, Value, Base, Offset, Alias));
    return true;
  }

  /// Parses "[%base + off] !class" (offset and sign optional).
  bool parseAddress(Function &F, Reg &Base, int64_t &Offset,
                    AliasClassId &Alias) {
    if (!expect(TokenKind::LBracket, "'['"))
      return false;
    if (!Tok.is(TokenKind::RegTok) ||
        Tok.RegValue.regClass() != RegClass::Int) {
      error(DiagCode::ParseBadOperand, "expected integer base register");
      return false;
    }
    Base = Tok.RegValue;
    noteRegister(F, Base);
    bump();

    Offset = 0;
    if (Tok.is(TokenKind::Plus) || Tok.is(TokenKind::Minus)) {
      bool Negative = Tok.is(TokenKind::Minus);
      bump();
      if (!Tok.is(TokenKind::Int)) {
        error(DiagCode::ParseBadImmediate, "expected offset after '+'/'-'");
        return false;
      }
      Offset = static_cast<int64_t>(Tok.IntValue);
      if (Negative)
        Offset = -Offset;
      bump();
    }
    if (!expect(TokenKind::RBracket, "']'"))
      return false;

    if (!expect(TokenKind::Bang, "'!' before alias class"))
      return false;
    if (Tok.is(TokenKind::Int)) {
      // Numeric classes occupy their slot in the function's alias-name
      // table (bounded so a stray huge literal can't balloon it);
      // otherwise a class interned later — the allocator's "__spill" in
      // particular — would be handed a colliding id.
      if (Tok.IntValue >= 1024) {
        error(DiagCode::ParseBadOperand,
              "alias class number out of range (max 1023)");
        return false;
      }
      Alias = static_cast<AliasClassId>(Tok.IntValue);
      F.reserveAliasClasses(Alias);
      bump();
    } else if (Tok.is(TokenKind::Ident)) {
      Alias = F.getOrCreateAliasClass(std::string(Tok.Text));
      bump();
    } else {
      error(DiagCode::ParseExpectedToken,
            "expected alias class name or number");
      return false;
    }
    return true;
  }

  bool parseTerminator(Function &F, BasicBlock &BB, Opcode Op) {
    if (Op == Opcode::Ret) {
      BB.append(Instruction::makeRet());
      return true;
    }

    Reg Cond;
    if (Op != Opcode::Jump) {
      if (!parseRegOperand(F, Op, 0, Cond))
        return false;
      if (!expect(TokenKind::Comma, "','"))
        return false;
    }

    int64_t Target = 0;
    bool NeedsFixup = false;
    std::string TargetName;
    if (Tok.is(TokenKind::At)) {
      bump();
      if (!Tok.is(TokenKind::Ident)) {
        error(DiagCode::ParseExpectedToken, "expected block name after '@'");
        return false;
      }
      TargetName = std::string(Tok.Text);
      NeedsFixup = true;
      bump();
    } else if (Tok.is(TokenKind::Int)) {
      Target = static_cast<int64_t>(Tok.IntValue);
      bump();
    } else {
      error(DiagCode::ParseExpectedToken,
            "expected '@blockname' or block index");
      return false;
    }

    unsigned Index = Op == Opcode::Jump
                         ? BB.append(Instruction::makeJump(Target))
                         : BB.append(Instruction::makeBranch(Op, Cond, Target));
    if (NeedsFixup)
      BranchFixups.push_back({F.numBlocks() - 1, Index, TargetName,
                              Tok.Line, Tok.Col});
    return true;
  }

  bool parseRegOperand(Function &F, Opcode Op, unsigned SrcIndex, Reg &Out) {
    if (!Tok.is(TokenKind::RegTok)) {
      error(DiagCode::ParseBadOperand, "expected register operand");
      return false;
    }
    Out = Tok.RegValue;
    bool WantFp = opcodeSrcIsFp(Op, SrcIndex);
    if ((Out.regClass() == RegClass::Fp) != WantFp) {
      error(DiagCode::ParseBadOperand,
            WantFp ? "expected a floating-point register"
                   : "expected an integer register");
      return false;
    }
    noteRegister(F, Out);
    bump();
    return true;
  }

  bool parseSignedInt(int64_t &Out) {
    bool Negative = false;
    if (Tok.is(TokenKind::Minus)) {
      Negative = true;
      bump();
    }
    if (!Tok.is(TokenKind::Int)) {
      error(DiagCode::ParseBadImmediate, "expected integer immediate");
      return false;
    }
    Out = static_cast<int64_t>(Tok.IntValue);
    if (Negative)
      Out = -Out;
    bump();
    return true;
  }

  bool parseSignedFloat(double &Out) {
    bool Negative = false;
    if (Tok.is(TokenKind::Minus)) {
      Negative = true;
      bump();
    }
    if (Tok.is(TokenKind::Float)) {
      Out = Tok.FloatValue;
    } else if (Tok.is(TokenKind::Int)) {
      Out = static_cast<double>(Tok.IntValue);
    } else {
      error(DiagCode::ParseBadImmediate,
            "expected floating-point immediate");
      return false;
    }
    if (Negative)
      Out = -Out;
    bump();
    return true;
  }

  /// Keeps the function's virtual-register counters ahead of any explicitly
  /// numbered register, so later makeVirtualReg calls stay fresh.
  void noteRegister(Function &F, Reg R) {
    if (R.isVirtual())
      F.reserveVirtualReg(R.regClass(), R.id());
  }

  void resolveBranchFixups(Function &F) {
    for (const BranchFixup &Fix : BranchFixups) {
      auto It = BlockIndexByName.find(Fix.TargetName);
      if (It == BlockIndexByName.end()) {
        Engine.error(DiagCode::ParseUnknownBranchTarget, Fix.Line, Fix.Col,
                     "unknown branch target '@" + Fix.TargetName + "'");
        continue;
      }
      F.block(Fix.BlockIndex)[Fix.InstrIndex].setImm(
          static_cast<int64_t>(It->second));
    }
    BranchFixups.clear();
    BlockIndexByName.clear();
  }

  struct BranchFixup {
    unsigned BlockIndex;
    unsigned InstrIndex;
    std::string TargetName;
    unsigned Line;
    unsigned Col;
  };

  Lexer Lex;
  Token Tok;
  ResourceGovernor *Governor;
  bool Tripped = false;
  DiagnosticEngine Engine;
  std::vector<BranchFixup> BranchFixups;
  std::unordered_map<std::string, unsigned> BlockIndexByName;
};

} // namespace

ParseResult bsched::parseIr(std::string_view Buffer) {
  return parseIr(Buffer, nullptr);
}

ParseResult bsched::parseIr(std::string_view Buffer,
                            ResourceGovernor *Governor) {
  // Keyed on the buffer contents so an armed "parse" site fails the same
  // inputs no matter which thread or pass parses them.
  if (anyFailPointsEnabled()) {
    if (std::optional<Diagnostic> D =
            checkFailPoint(failpoints::Parse, stableHash(Buffer))) {
      ParseResult Result;
      Result.Diags.push_back(std::move(*D));
      return Result;
    }
  }
  return Parser(Buffer, Governor).run();
}

ErrorOr<Function> bsched::parseSingleFunction(std::string_view Buffer) {
  ParseResult Result = parseIr(Buffer);
  if (!Result.ok() || Result.Functions.size() != 1) {
    std::vector<Diagnostic> Diags = std::move(Result.Diags);
    if (Result.Functions.size() != 1)
      Diags.push_back({0, 0,
                       "expected exactly one function, found " +
                           std::to_string(Result.Functions.size()),
                       Severity::Error, DiagCode::ParseNotSingleFunction});
    return ErrorOr<Function>(std::move(Diags));
  }
  return std::move(Result.Functions.front());
}
