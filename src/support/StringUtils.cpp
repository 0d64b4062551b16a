//===- support/StringUtils.cpp - Small string helpers --------------------===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>

using namespace bsched;

static bool isSpaceChar(char C) {
  return C == ' ' || C == '\t' || C == '\r' || C == '\n' || C == '\f' ||
         C == '\v';
}

uint64_t bsched::stableHash(std::string_view Text) {
  uint64_t Hash = 0xcbf29ce484222325ull; // FNV-1a offset basis.
  for (char C : Text)
    Hash = (Hash ^ static_cast<unsigned char>(C)) * 0x100000001b3ull;
  return Hash;
}

std::string_view bsched::trim(std::string_view S) {
  size_t Begin = 0;
  while (Begin < S.size() && isSpaceChar(S[Begin]))
    ++Begin;
  size_t End = S.size();
  while (End > Begin && isSpaceChar(S[End - 1]))
    --End;
  return S.substr(Begin, End - Begin);
}

std::vector<std::string_view> bsched::split(std::string_view S, char Sep) {
  std::vector<std::string_view> Pieces;
  size_t Start = 0;
  for (size_t I = 0; I <= S.size(); ++I) {
    if (I == S.size() || S[I] == Sep) {
      Pieces.push_back(trim(S.substr(Start, I - Start)));
      Start = I + 1;
    }
  }
  return Pieces;
}

std::string bsched::formatDouble(double Value, int Decimals) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, Value);
  return std::string(Buf);
}

std::string bsched::formatTwelfths(double Value) {
  // Snap to the nearest twelfth; if the value is not (nearly) a twelfth,
  // print a plain decimal instead.
  double Twelfths = Value * 12.0;
  long Rounded = std::lround(Twelfths);
  if (std::fabs(Twelfths - static_cast<double>(Rounded)) > 1e-6)
    return formatDouble(Value, 4);

  long Whole = Rounded / 12;
  long Rem = Rounded % 12;
  if (Rem < 0) {
    Rem += 12;
    --Whole;
  }
  if (Rem == 0)
    return std::to_string(Whole);

  // Reduce Rem/12 to lowest terms (divisors of 12 only).
  long Num = Rem, Den = 12;
  for (long D : {6L, 4L, 3L, 2L}) {
    if (Num % D == 0 && Den % D == 0) {
      Num /= D;
      Den /= D;
    }
  }
  std::string Frac = std::to_string(Num) + "/" + std::to_string(Den);
  if (Whole == 0)
    return Frac;
  return std::to_string(Whole) + " " + Frac;
}

std::string bsched::formatPercent(double Value) {
  return formatDouble(Value, 1);
}

void bsched::appendHexExact(std::string &Out, double Value) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), " %a", Value);
  Out += Buf;
}
