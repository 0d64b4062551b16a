//===- support/CliOptions.cpp - Shared CLI flag parsing -------------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "support/CliOptions.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

using namespace bsched;

// Both parsers demand a leading digit: strtoull and strtod would skip
// leading space and accept a sign, and strtoull negates a '-' value into
// a huge count.
bool bsched::parseCount(const char *Text, uint64_t &Out, uint64_t Max) {
  if (!std::isdigit(static_cast<unsigned char>(*Text)))
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Text, &End, 10);
  if (*End != '\0' || errno == ERANGE || Value > Max)
    return false;
  Out = Value;
  return true;
}

bool bsched::parseNonNegative(const char *Text, double &Out) {
  if (!std::isdigit(static_cast<unsigned char>(*Text)) && *Text != '.')
    return false;
  char *End = nullptr;
  double Value = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || !std::isfinite(Value))
    return false;
  Out = Value;
  return true;
}

CliOptionParser::Match CliOptionParser::tryParse(int Argc, char **Argv,
                                                 int &I) {
  std::string_view Arg = Argv[I];

  auto NeedsValue = [&](std::string_view Flag) -> const char * {
    if (I + 1 >= Argc) {
      fail("error: " + std::string(Flag) + " requires a value");
      return nullptr;
    }
    return Argv[++I];
  };

  if ((Wanted & WantPolicy) && Arg == "--policy") {
    const char *Value = NeedsValue(Arg);
    if (!Value)
      return Match::Error;
    Options.PolicyText = Value;
    Options.HasPolicy = true;
    return Match::Consumed;
  }
  if ((Wanted & WantCandidate) && Arg == "--candidate") {
    const char *Value = NeedsValue(Arg);
    if (!Value)
      return Match::Error;
    Options.PolicyText = Value;
    Options.HasPolicy = true;
    return Match::Consumed;
  }
  if ((Wanted & WantJson) && Arg == "--json") {
    Options.Json = true;
    return Match::Consumed;
  }
  if (Wanted & WantTrace) {
    constexpr std::string_view Prefix = "--trace-out=";
    if (Arg.rfind(Prefix, 0) == 0) {
      Options.TraceOut = Arg.substr(Prefix.size());
      return Match::Consumed;
    }
    if (Arg == "--trace-out") {
      const char *Value = NeedsValue(Arg);
      if (!Value)
        return Match::Error;
      Options.TraceOut = Value;
      return Match::Consumed;
    }
  }
  if (Wanted & WantLog) {
    if (Arg == "--log-file") {
      const char *Value = NeedsValue(Arg);
      if (!Value)
        return Match::Error;
      Options.LogFile = Value;
      return Match::Consumed;
    }
    if (Arg == "--log-level") {
      const char *Value = NeedsValue(Arg);
      if (!Value)
        return Match::Error;
      Options.LogLevelText = Value;
      return Match::Consumed;
    }
  }
  if ((Wanted & WantConfig) && Arg == "--config") {
    const char *Value = NeedsValue(Arg);
    if (!Value)
      return Match::Error;
    Options.ConfigFile = Value;
    return Match::Consumed;
  }
  if (Wanted & WantBudget) {
    if (Arg == "--deadline-ms") {
      const char *Value = NeedsValue(Arg);
      if (!Value)
        return Match::Error;
      if (!parseNonNegative(Value, Options.Budget.DeadlineMs))
        return fail("error: bad --deadline-ms value '" + std::string(Value) +
                    "'");
      return Match::Consumed;
    }
    if (Arg == "--max-instrs") {
      const char *Value = NeedsValue(Arg);
      if (!Value)
        return Match::Error;
      if (!parseCount(Value, Options.Budget.MaxInstructionsPerBlock))
        return fail("error: bad --max-instrs value '" + std::string(Value) +
                    "'");
      return Match::Consumed;
    }
  }
  return Match::NotMine;
}

std::string CliOptionParser::usageFragment() const {
  std::string Out;
  auto Append = [&Out](std::string_view Piece) {
    if (!Out.empty())
      Out += ' ';
    Out += Piece;
  };
  if (Wanted & WantPolicy)
    Append("[--policy <name>]");
  if (Wanted & WantCandidate)
    Append("[--candidate <policy>]");
  if (Wanted & WantJson)
    Append("[--json]");
  if (Wanted & WantTrace)
    Append("[--trace-out=FILE]");
  if (Wanted & WantConfig)
    Append("[--config FILE]");
  if (Wanted & WantBudget)
    Append("[--deadline-ms N] [--max-instrs N]");
  if (Wanted & WantLog)
    Append("[--log-file FILE] [--log-level LEVEL]");
  return Out;
}
