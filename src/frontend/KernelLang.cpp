//===- frontend/KernelLang.cpp - A Fortran-ish kernel language --------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "frontend/KernelLang.h"

#include "ir/IrBuilder.h"
#include "parser/Lexer.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>

using namespace bsched;

namespace {

bool hasErrors(const std::vector<Diagnostic> &Diags) {
  for (const Diagnostic &D : Diags)
    if (D.isError())
      return true;
  return false;
}

//===----------------------------------------------------------------------===
// AST
//===----------------------------------------------------------------------===

/// An array subscript: either a constant, or loop-var +/- constant.
struct Subscript {
  bool UsesLoopVar = false;
  int64_t Offset = 0; ///< The constant (or the +/- k part).
};

struct Expr {
  enum class Kind { Number, Scalar, ArrayRef, Binary, Negate };
  Kind K;
  double Number = 0.0;              // Number.
  std::string Name;                 // Scalar / ArrayRef.
  Subscript Index;                  // ArrayRef.
  char Op = '+';                    // Binary: + - * /.
  std::unique_ptr<Expr> Lhs, Rhs;   // Binary (Lhs only for Negate).
};

struct Stmt {
  enum class Kind { AssignScalar, AssignArray, Loop };
  Kind K;
  std::string Name;               // Scalar or array name; loop variable.
  Subscript Index;                // AssignArray.
  std::unique_ptr<Expr> Value;    // Assignments.
  int64_t Lo = 0, Hi = 0;         // Loop bounds.
  unsigned Unroll = 0;            // Loop unroll factor (0 = default).
  std::vector<Stmt> Body;         // Loop body.
  unsigned Line = 0;
};

struct KernelDecl {
  std::string Name;
  double Freq = 1.0;
  std::vector<Stmt> Body;
};

//===----------------------------------------------------------------------===
// Parser
//===----------------------------------------------------------------------===

class LangParser {
public:
  explicit LangParser(std::string_view Source) : Lex(Source) { bump(); }

  std::vector<KernelDecl> run(std::vector<ParseDiag> &Diags) {
    std::vector<KernelDecl> Kernels;
    while (!Tok.is(TokenKind::Eof)) {
      if (Tok.is(TokenKind::Ident) && Tok.Text == "kernel") {
        if (auto K = parseKernel())
          Kernels.push_back(std::move(*K));
      } else {
        error("expected 'kernel'");
        bump();
      }
    }
    Diags = std::move(Errors);
    return Kernels;
  }

private:
  void bump() {
    Tok = Lex.next();
    if (Tok.is(TokenKind::Error)) {
      Errors.push_back({Tok.Line, Tok.Col, std::string(Tok.Text),
                        Severity::Error, Tok.Code});
      Tok = Lex.next();
    }
  }

  void error(std::string Message,
             DiagCode Code = DiagCode::FrontendSyntax) {
    Errors.push_back(
        {Tok.Line, Tok.Col, std::move(Message), Severity::Error, Code});
  }

  bool expect(TokenKind Kind, const char *What) {
    if (Tok.is(Kind)) {
      bump();
      return true;
    }
    error(std::string("expected ") + What);
    return false;
  }

  bool expectIdent(std::string &Out) {
    if (!Tok.is(TokenKind::Ident)) {
      error("expected an identifier");
      return false;
    }
    Out = std::string(Tok.Text);
    bump();
    return true;
  }

  std::optional<int64_t> parseSignedIntLit() {
    bool Neg = false;
    if (Tok.is(TokenKind::Minus)) {
      Neg = true;
      bump();
    }
    if (!Tok.is(TokenKind::Int)) {
      error("expected an integer");
      return std::nullopt;
    }
    int64_t V = static_cast<int64_t>(Tok.IntValue);
    bump();
    return Neg ? -V : V;
  }

  std::optional<KernelDecl> parseKernel() {
    bump(); // 'kernel'
    KernelDecl K;
    if (!expectIdent(K.Name))
      return std::nullopt;
    if (!expect(TokenKind::LParen, "'('"))
      return std::nullopt;
    // The parameter list documents the kernel's arrays; arrays are bound
    // by use, so we just skip over the names.
    while (Tok.is(TokenKind::Ident)) {
      bump();
      if (Tok.is(TokenKind::Comma))
        bump();
    }
    if (!expect(TokenKind::RParen, "')'"))
      return std::nullopt;
    if (Tok.is(TokenKind::Ident) && Tok.Text == "freq") {
      bump();
      if (Tok.is(TokenKind::Int) || Tok.is(TokenKind::Float)) {
        K.Freq = Tok.is(TokenKind::Int) ? static_cast<double>(Tok.IntValue)
                                        : Tok.FloatValue;
        if (!isAcceptedBlockFrequency(K.Freq)) {
          error("kernel frequency must be finite and at most 1e12",
                DiagCode::ParseBadImmediate);
          K.Freq = 1.0;
        }
        bump();
      } else {
        error("expected a number after 'freq'");
      }
    }
    if (!expect(TokenKind::LBrace, "'{'"))
      return std::nullopt;
    parseStmtList(K.Body, /*InLoop=*/false);
    expect(TokenKind::RBrace, "'}' closing kernel");
    return K;
  }

  void parseStmtList(std::vector<Stmt> &Out, bool InLoop) {
    while (!Tok.is(TokenKind::RBrace) && !Tok.is(TokenKind::Eof)) {
      if (auto S = parseStmt(InLoop))
        Out.push_back(std::move(*S));
      else
        return; // Error recovery: bail to the closing brace.
    }
  }

  std::optional<Stmt> parseStmt(bool InLoop) {
    if (Tok.is(TokenKind::Ident) && Tok.Text == "for") {
      if (InLoop) {
        error("loops cannot nest (one unrolled loop per kernel level)");
        return std::nullopt;
      }
      return parseLoop();
    }

    Stmt S;
    S.Line = Tok.Line;
    if (!expectIdent(S.Name))
      return std::nullopt;
    if (Tok.is(TokenKind::LBracket)) {
      S.K = Stmt::Kind::AssignArray;
      bump();
      if (!parseSubscript(S.Index))
        return std::nullopt;
      if (!expect(TokenKind::RBracket, "']'"))
        return std::nullopt;
    } else {
      S.K = Stmt::Kind::AssignScalar;
    }
    if (!expect(TokenKind::Equals, "'='"))
      return std::nullopt;
    S.Value = parseExpr();
    if (!S.Value)
      return std::nullopt;
    if (!expect(TokenKind::Semi, "';'"))
      return std::nullopt;
    return S;
  }

  std::optional<Stmt> parseLoop() {
    Stmt S;
    S.K = Stmt::Kind::Loop;
    S.Line = Tok.Line;
    bump(); // 'for'
    if (!expectIdent(S.Name))
      return std::nullopt;
    LoopVar = S.Name;
    if (!expect(TokenKind::Equals, "'='"))
      return std::nullopt;
    auto Lo = parseSignedIntLit();
    if (!Lo)
      return std::nullopt;
    S.Lo = *Lo;
    if (!(Tok.is(TokenKind::Ident) && Tok.Text == "to")) {
      error("expected 'to'");
      return std::nullopt;
    }
    bump();
    auto Hi = parseSignedIntLit();
    if (!Hi)
      return std::nullopt;
    S.Hi = *Hi;
    if (S.Hi <= S.Lo) {
      error("loop bounds must satisfy lo < hi");
      return std::nullopt;
    }
    if (Tok.is(TokenKind::Ident) && Tok.Text == "unroll") {
      bump();
      if (!Tok.is(TokenKind::Int) || Tok.IntValue == 0) {
        error("expected a positive unroll factor");
        return std::nullopt;
      }
      S.Unroll = static_cast<unsigned>(Tok.IntValue);
      bump();
    }
    if (!expect(TokenKind::LBrace, "'{'"))
      return std::nullopt;
    parseStmtList(S.Body, /*InLoop=*/true);
    expect(TokenKind::RBrace, "'}' closing loop");
    LoopVar.clear();
    return S;
  }

  bool parseSubscript(Subscript &Out) {
    if (Tok.is(TokenKind::Ident)) {
      if (std::string(Tok.Text) != LoopVar) {
        error("subscript variable must be the enclosing loop variable");
        return false;
      }
      Out.UsesLoopVar = true;
      bump();
      if (Tok.is(TokenKind::Plus) || Tok.is(TokenKind::Minus)) {
        bool Neg = Tok.is(TokenKind::Minus);
        bump();
        if (!Tok.is(TokenKind::Int)) {
          error("expected a constant after '+'/'-' in subscript");
          return false;
        }
        Out.Offset = static_cast<int64_t>(Tok.IntValue);
        if (Neg)
          Out.Offset = -Out.Offset;
        bump();
      }
      return true;
    }
    auto C = parseSignedIntLit();
    if (!C)
      return false;
    Out.UsesLoopVar = false;
    Out.Offset = *C;
    return true;
  }

  // expr := term (('+'|'-') term)*
  std::unique_ptr<Expr> parseExpr() {
    std::unique_ptr<Expr> Lhs = parseTerm();
    while (Lhs && (Tok.is(TokenKind::Plus) || Tok.is(TokenKind::Minus))) {
      char Op = Tok.is(TokenKind::Plus) ? '+' : '-';
      bump();
      std::unique_ptr<Expr> Rhs = parseTerm();
      if (!Rhs)
        return nullptr;
      auto Node = std::make_unique<Expr>();
      Node->K = Expr::Kind::Binary;
      Node->Op = Op;
      Node->Lhs = std::move(Lhs);
      Node->Rhs = std::move(Rhs);
      Lhs = std::move(Node);
    }
    return Lhs;
  }

  // term := factor (('*'|'/') factor)*
  std::unique_ptr<Expr> parseTerm() {
    std::unique_ptr<Expr> Lhs = parseFactor();
    while (Lhs && (Tok.is(TokenKind::Star) || Tok.is(TokenKind::Slash))) {
      char Op = Tok.is(TokenKind::Star) ? '*' : '/';
      bump();
      std::unique_ptr<Expr> Rhs = parseFactor();
      if (!Rhs)
        return nullptr;
      auto Node = std::make_unique<Expr>();
      Node->K = Expr::Kind::Binary;
      Node->Op = Op;
      Node->Lhs = std::move(Lhs);
      Node->Rhs = std::move(Rhs);
      Lhs = std::move(Node);
    }
    return Lhs;
  }

  std::unique_ptr<Expr> parseFactor() {
    auto Node = std::make_unique<Expr>();
    if (Tok.is(TokenKind::Minus)) {
      bump();
      Node->K = Expr::Kind::Negate;
      Node->Lhs = parseFactor();
      return Node->Lhs ? std::move(Node) : nullptr;
    }
    if (Tok.is(TokenKind::LParen)) {
      bump();
      std::unique_ptr<Expr> Inner = parseExpr();
      if (!Inner)
        return nullptr;
      expect(TokenKind::RParen, "')'");
      return Inner;
    }
    if (Tok.is(TokenKind::Int) || Tok.is(TokenKind::Float)) {
      Node->K = Expr::Kind::Number;
      Node->Number = Tok.is(TokenKind::Int)
                         ? static_cast<double>(Tok.IntValue)
                         : Tok.FloatValue;
      bump();
      return Node;
    }
    if (Tok.is(TokenKind::Ident)) {
      Node->Name = std::string(Tok.Text);
      bump();
      if (Tok.is(TokenKind::LBracket)) {
        bump();
        Node->K = Expr::Kind::ArrayRef;
        if (!parseSubscript(Node->Index))
          return nullptr;
        if (!expect(TokenKind::RBracket, "']'"))
          return nullptr;
        return Node;
      }
      Node->K = Expr::Kind::Scalar;
      return Node;
    }
    error("expected an expression");
    return nullptr;
  }

  Lexer Lex;
  Token Tok;
  std::string LoopVar;
  std::vector<ParseDiag> Errors;
};

//===----------------------------------------------------------------------===
// Lowering
//===----------------------------------------------------------------------===

class Lowering {
public:
  Lowering(const KernelLangOptions &Options, KernelLangResult &Result)
      : Options(Options), Result(Result) {}

  void run(const std::vector<KernelDecl> &Kernels) {
    Function F("kernels");
    for (const KernelDecl &K : Kernels) {
      BasicBlock &BB = F.addBlock(K.Name, K.Freq);
      lowerKernel(F, BB, K);
    }
    if (!hasErrors(Result.Diags))
      Result.Program = std::move(F);
  }

private:
  void diag(unsigned Line, std::string Message) {
    Result.Diags.push_back({Line, 0, std::move(Message), Severity::Error,
                            DiagCode::FrontendSemantic});
  }

  /// Array bookkeeping: one binding per source array, shared across
  /// kernels (the arrays are the program's global data).
  ArrayBinding &bindingOf(Function &F, const std::string &Name) {
    for (ArrayBinding &A : Result.Arrays)
      if (A.Name == Name)
        return A;
    ArrayBinding A;
    A.Name = Name;
    A.BaseAddress = NextBase;
    NextBase += 1 << 20;
    A.Alias = F.getOrCreateAliasClass(
        Options.FortranAliasing ? Name : std::string("mem"));
    Result.Arrays.push_back(A);
    return Result.Arrays.back();
  }

  //===-- Per-kernel state --------------------------------------------===//

  struct LoopState {
    int64_t Lo = 0;
    unsigned Iteration = 0; ///< Current unrolled iteration (0-based).
    std::map<std::string, Reg> Cursors; ///< Array -> bumped cursor reg.
  };

  /// Cached array elements: (array, loop-relative?, element key) -> reg.
  using CacheKey = std::tuple<std::string, bool, int64_t>;

  void lowerKernel(Function &F, BasicBlock &BB, const KernelDecl &K) {
    IrBuilder Builder(F, BB);
    B = &Builder;
    Fn = &F;
    Scalars.clear();
    ScalarOrder.clear();
    Cache.clear();
    NumberRegs.clear();
    BaseRegs.clear();
    Loop.reset();

    for (const Stmt &S : K.Body)
      lowerStmt(S, BB);

    // Make every scalar observable: store them to the kernel's private
    // result array in assignment order.
    if (!ScalarOrder.empty()) {
      ArrayBinding &Res = bindingOf(F, K.Name + ".__result");
      Reg Base = B->emitLoadImm(Res.BaseAddress);
      for (unsigned I = 0; I != ScalarOrder.size(); ++I)
        B->emitStore(Scalars.at(ScalarOrder[I]), Base, 8 * I, Res.Alias);
    }
  }

  void lowerStmt(const Stmt &S, BasicBlock &BB) {
    switch (S.K) {
    case Stmt::Kind::AssignScalar: {
      Reg V = lowerExpr(*S.Value, S.Line);
      if (!V.isValid())
        return;
      if (!Scalars.count(S.Name))
        ScalarOrder.push_back(S.Name);
      Scalars[S.Name] = V;
      return;
    }
    case Stmt::Kind::AssignArray: {
      Reg V = lowerExpr(*S.Value, S.Line);
      if (!V.isValid())
        return;
      storeArray(S.Name, S.Index, V, S.Line);
      return;
    }
    case Stmt::Kind::Loop:
      lowerLoop(S, BB);
      return;
    }
  }

  void lowerLoop(const Stmt &S, BasicBlock &BB) {
    int64_t Trip = S.Hi - S.Lo;
    unsigned Unroll = S.Unroll != 0
                          ? S.Unroll
                          : static_cast<unsigned>(std::min<int64_t>(Trip, 4));
    if (static_cast<int64_t>(Unroll) > Trip)
      Unroll = static_cast<unsigned>(Trip);

    // The block holds Unroll iterations; profiled frequency absorbs the
    // remaining trips (the paper's per-block simulation model).
    BB.setFrequency(BB.frequency() * (static_cast<double>(Trip) / Unroll));

    Loop.emplace();
    Loop->Lo = S.Lo;
    Cache.clear(); // Loop-relative keys are scoped to this loop.

    for (unsigned Iter = 0; Iter != Unroll; ++Iter) {
      Loop->Iteration = Iter;
      for (const Stmt &Body : S.Body)
        lowerStmt(Body, BB);
      if (Iter + 1 != Unroll)
        for (auto &[Name, Cursor] : Loop->Cursors)
          B->emitAdvance(Cursor, 8);
    }

    Loop.reset();
    Cache.clear();
  }

  //===-- Addressing --------------------------------------------------===//

  /// The un-bumped base register of \p Name (constant subscripts).
  Reg baseReg(const std::string &Name) {
    auto It = BaseRegs.find(Name);
    if (It != BaseRegs.end())
      return It->second;
    Reg R = B->emitLoadImm(bindingOf(*Fn, Name).BaseAddress);
    BaseRegs.emplace(Name, R);
    return R;
  }

  /// The loop cursor of \p Name, created on first use pointing at
  /// element Lo (plus any bumps already applied this loop).
  Reg cursorReg(const std::string &Name) {
    assert(Loop && "cursor outside a loop");
    auto It = Loop->Cursors.find(Name);
    if (It != Loop->Cursors.end())
      return It->second;
    // Late creation inside iteration k: point the fresh cursor at element
    // Lo + k directly.
    Reg R = B->emitLoadImm(bindingOf(*Fn, Name).BaseAddress +
                           8 * (Loop->Lo + Loop->Iteration));
    Loop->Cursors.emplace(Name, R);
    return R;
  }

  /// (address register, byte offset, cache key) for one subscript.
  struct Address {
    Reg Base;
    int64_t Offset;
    CacheKey Key;
  };

  Address addressOf(const std::string &Name, const Subscript &Sub,
                    unsigned Line) {
    if (Sub.UsesLoopVar) {
      if (!Loop) {
        diag(Line, "loop-variable subscript outside a loop");
        return {Reg(), 0, {}};
      }
      // Element index relative to the loop start: iteration + k.
      int64_t Element = Loop->Iteration + Sub.Offset;
      return {cursorReg(Name), 8 * Sub.Offset,
              {Name, true, Element}};
    }
    return {baseReg(Name), 8 * Sub.Offset, {Name, false, Sub.Offset}};
  }

  Reg loadArray(const std::string &Name, const Subscript &Sub,
                unsigned Line) {
    Address A = addressOf(Name, Sub, Line);
    if (!A.Base.isValid())
      return Reg();
    auto It = Cache.find(A.Key);
    if (It != Cache.end())
      return It->second; // Sliding-window / store-forwarding reuse.
    Reg V = B->emitFLoad(A.Base, A.Offset, bindingOf(*Fn, Name).Alias);
    Cache.emplace(A.Key, V);
    return V;
  }

  void storeArray(const std::string &Name, const Subscript &Sub, Reg Value,
                  unsigned Line) {
    Address A = addressOf(Name, Sub, Line);
    if (!A.Base.isValid())
      return;
    B->emitStore(Value, A.Base, A.Offset, bindingOf(*Fn, Name).Alias);

    // Cache maintenance. Affine subscripts over one loop variable make
    // same-array elements with different keys provably distinct, so only
    // the stored element (and, conservatively, the same array's other
    // addressing mode) is invalidated. Without Fortran aliasing any
    // store may alias any cached element.
    if (!Options.FortranAliasing) {
      Cache.clear();
    } else {
      for (auto It = Cache.begin(); It != Cache.end();) {
        const CacheKey &Key = It->first;
        bool SameArray = std::get<0>(Key) == Name;
        bool SameMode = std::get<1>(Key) == std::get<1>(A.Key);
        if (SameArray && (!SameMode || Key == A.Key))
          It = Cache.erase(It);
        else
          ++It;
      }
    }
    Cache.emplace(A.Key, Value); // Store-to-load forwarding.
  }

  //===-- Expressions --------------------------------------------------===//

  Reg numberReg(double Value) {
    auto It = NumberRegs.find(Value);
    if (It != NumberRegs.end())
      return It->second;
    Reg R = B->emitFLoadImm(Value);
    NumberRegs.emplace(Value, R);
    return R;
  }

  Reg lowerExpr(const Expr &E, unsigned Line) {
    switch (E.K) {
    case Expr::Kind::Number:
      return numberReg(E.Number);
    case Expr::Kind::Scalar: {
      auto It = Scalars.find(E.Name);
      if (It == Scalars.end()) {
        diag(Line, "scalar '" + E.Name + "' read before assignment");
        return Reg();
      }
      return It->second;
    }
    case Expr::Kind::ArrayRef:
      return loadArray(E.Name, E.Index, Line);
    case Expr::Kind::Negate: {
      Reg V = lowerExpr(*E.Lhs, Line);
      return V.isValid() ? B->emitUnary(Opcode::FNeg, V) : Reg();
    }
    case Expr::Kind::Binary: {
      Reg L = lowerExpr(*E.Lhs, Line);
      Reg R = lowerExpr(*E.Rhs, Line);
      if (!L.isValid() || !R.isValid())
        return Reg();
      Opcode Op = E.Op == '+'   ? Opcode::FAdd
                  : E.Op == '-' ? Opcode::FSub
                  : E.Op == '*' ? Opcode::FMul
                                : Opcode::FDiv;
      return B->emitBinary(Op, L, R);
    }
    }
    return Reg();
  }

  const KernelLangOptions &Options;
  KernelLangResult &Result;
  IrBuilder *B = nullptr;
  Function *Fn = nullptr;
  int64_t NextBase = 1 << 20;

  std::map<std::string, Reg> Scalars;
  std::vector<std::string> ScalarOrder;
  std::map<CacheKey, Reg> Cache;
  std::map<double, Reg> NumberRegs;
  std::map<std::string, Reg> BaseRegs;
  std::optional<LoopState> Loop;
};

} // namespace

KernelLangResult bsched::compileKernelLang(std::string_view Source,
                                           const KernelLangOptions &Options) {
  KernelLangResult Result;
  LangParser Parser(Source);
  std::vector<KernelDecl> Kernels = Parser.run(Result.Diags);
  if (hasErrors(Result.Diags))
    return Result;
  Lowering(Options, Result).run(Kernels);
  return Result;
}
