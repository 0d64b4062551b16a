//===- parser/Lexer.cpp - Tokenizer for the .bsir format ------------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "parser/Lexer.h"

#include <cctype>
#include <cstdlib>

using namespace bsched;

namespace {

bool isIdentStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}

bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_' || C == '.';
}

bool isDigitChar(char C) { return std::isdigit(static_cast<unsigned char>(C)); }

} // namespace

void Lexer::advance() {
  if (Pos >= Buffer.size())
    return;
  if (Buffer[Pos] == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  ++Pos;
}

void Lexer::skipWhitespaceAndComments() {
  for (;;) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
    if (C == '#' || (C == '/' && peek(1) == '/')) {
      while (peek() != '\n' && peek() != '\0')
        advance();
      continue;
    }
    return;
  }
}

Token Lexer::makeSimple(TokenKind Kind, unsigned Length) {
  Token T;
  T.Kind = Kind;
  T.Text = Buffer.substr(Pos, Length);
  T.Line = Line;
  T.Col = Col;
  for (unsigned I = 0; I != Length; ++I)
    advance();
  return T;
}

Token Lexer::errorToken(DiagCode Code, const char *Message) {
  Token T;
  T.Kind = TokenKind::Error;
  T.Text = Message;
  T.Line = Line;
  T.Col = Col;
  T.Code = Code;
  advance(); // Consume the offending character so lexing can progress.
  return T;
}

Token Lexer::lexIdent() {
  Token T;
  T.Kind = TokenKind::Ident;
  T.Line = Line;
  T.Col = Col;
  size_t Start = Pos;
  while (isIdentChar(peek()))
    advance();
  T.Text = Buffer.substr(Start, Pos - Start);
  return T;
}

Token Lexer::lexNumber() {
  Token T;
  T.Line = Line;
  T.Col = Col;
  size_t Start = Pos;
  while (isDigitChar(peek()))
    advance();
  bool IsFloat = false;
  if (peek() == '.' && isDigitChar(peek(1))) {
    IsFloat = true;
    advance();
    while (isDigitChar(peek()))
      advance();
  }
  if (peek() == 'e' || peek() == 'E') {
    char After = peek(1);
    char After2 = peek(2);
    if (isDigitChar(After) ||
        ((After == '+' || After == '-') && isDigitChar(After2))) {
      IsFloat = true;
      advance(); // e
      if (peek() == '+' || peek() == '-')
        advance();
      while (isDigitChar(peek()))
        advance();
    }
  }
  T.Text = Buffer.substr(Start, Pos - Start);
  std::string Copy(T.Text);
  if (IsFloat) {
    T.Kind = TokenKind::Float;
    T.FloatValue = std::strtod(Copy.c_str(), nullptr);
  } else {
    T.Kind = TokenKind::Int;
    T.IntValue = std::strtoull(Copy.c_str(), nullptr, 10);
  }
  return T;
}

Token Lexer::lexRegister() {
  Token T;
  T.Line = Line;
  T.Col = Col;
  size_t Start = Pos;
  bool Physical = peek() == '$';
  advance(); // % or $
  char ClassChar = peek();
  if (ClassChar != 'i' && ClassChar != 'f')
    return errorToken(DiagCode::LexBadRegisterClass,
                      "expected 'i' or 'f' after register sigil");
  advance();
  if (!isDigitChar(peek()))
    return errorToken(DiagCode::LexBadRegisterNumber,
                      "expected register number");
  // Stop accumulating once past Reg::MaxId (Id stays below 2^33, so the
  // sum never wraps) but consume every digit, so the token ends where the
  // number does.
  uint64_t Id = 0;
  while (isDigitChar(peek())) {
    if (Id <= Reg::MaxId)
      Id = Id * 10 + static_cast<uint64_t>(peek() - '0');
    advance();
  }
  static_assert(Reg::MaxId == 536870911, "keep the message below in step");
  if (Id > Reg::MaxId) {
    T.Kind = TokenKind::Error;
    T.Text = "register number too large (at most 536870911)";
    T.Code = DiagCode::LexBadRegisterNumber;
    return T;
  }
  T.Kind = TokenKind::RegTok;
  T.Text = Buffer.substr(Start, Pos - Start);
  RegClass RC = ClassChar == 'f' ? RegClass::Fp : RegClass::Int;
  T.RegValue = Physical ? Reg::makePhysical(RC, static_cast<unsigned>(Id))
                        : Reg::makeVirtual(RC, static_cast<unsigned>(Id));
  return T;
}

Token Lexer::next() {
  skipWhitespaceAndComments();
  char C = peek();
  switch (C) {
  case '\0': {
    Token T;
    T.Kind = TokenKind::Eof;
    T.Line = Line;
    T.Col = Col;
    return T;
  }
  case '{':
    return makeSimple(TokenKind::LBrace, 1);
  case '}':
    return makeSimple(TokenKind::RBrace, 1);
  case '[':
    return makeSimple(TokenKind::LBracket, 1);
  case ']':
    return makeSimple(TokenKind::RBracket, 1);
  case '=':
    return makeSimple(TokenKind::Equals, 1);
  case ',':
    return makeSimple(TokenKind::Comma, 1);
  case '+':
    return makeSimple(TokenKind::Plus, 1);
  case '-':
    return makeSimple(TokenKind::Minus, 1);
  case '!':
    return makeSimple(TokenKind::Bang, 1);
  case '@':
    return makeSimple(TokenKind::At, 1);
  case '*':
    return makeSimple(TokenKind::Star, 1);
  case ';':
    return makeSimple(TokenKind::Semi, 1);
  case '(':
    return makeSimple(TokenKind::LParen, 1);
  case ')':
    return makeSimple(TokenKind::RParen, 1);
  case '%':
  case '$':
    return lexRegister();
  case '/':
    // "//" comments are consumed by skipWhitespaceAndComments; a lone
    // slash is the division operator of the kernel-language frontend.
    return makeSimple(TokenKind::Slash, 1);
  default:
    if (isIdentStart(C))
      return lexIdent();
    if (isDigitChar(C))
      return lexNumber();
    return errorToken(DiagCode::LexUnexpectedChar, "unexpected character");
  }
}
