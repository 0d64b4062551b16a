//===- support/StringUtils.h - Small string helpers ------------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String formatting, splitting and hashing helpers shared by the IR
/// printer, the parser, the pipeline, and the benchmark table writers.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SUPPORT_STRINGUTILS_H
#define BSCHED_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bsched {

/// The 64-bit FNV-1a hash of \p Text. Stable across runs, builds and
/// hosts, so it keys fail points, picks compile-cache shards and pins
/// golden output.
uint64_t stableHash(std::string_view Text);

/// Returns \p S without leading/trailing ASCII whitespace.
std::string_view trim(std::string_view S);

/// Splits \p S on \p Sep, trimming each piece; empty pieces are kept so
/// column positions are stable.
std::vector<std::string_view> split(std::string_view S, char Sep);

/// Formats \p Value with \p Decimals digits after the point ("3.14").
std::string formatDouble(double Value, int Decimals);

/// Formats \p Value as a mixed fraction over twelfths when it is (close to)
/// a multiple of 1/12 — "2 5/12", "1/4" — otherwise falls back to a decimal.
/// Used to print the Table 1 weight-contribution matrix the way the paper
/// does.
std::string formatTwelfths(double Value);

/// Appends a space and \p Value in hex-exact "%a" form ("0x1.8p+1"):
/// cache keys print doubles this way, since rounding them could give two
/// distinct programs or configs one key.
void appendHexExact(std::string &Out, double Value);

/// Returns "Value%" with one decimal ("12.9"), matching the paper's tables.
std::string formatPercent(double Value);

} // namespace bsched

#endif // BSCHED_SUPPORT_STRINGUTILS_H
