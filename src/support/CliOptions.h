//===- support/CliOptions.h - Shared CLI flag parsing ----------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one copy of the flag parsing every example CLI used to hand-roll:
/// policy/candidate selection, `--json`, `--trace-out`, the resource-
/// budget flags (`--deadline-ms`, `--max-instrs`) and `--config FILE`,
/// plus the numeric value parsers the CLIs' own flags use.
/// A CLI constructs a CliOptionParser with the subset of common flags it
/// accepts and offers each argv element to tryParse(); anything the
/// parser does not own falls through to the CLI's own loop, so
/// tool-specific flags (--dot, --demo, --certify, ...) stay local.
///
/// Policy names are carried as *text* here (support sits below the
/// pipeline layer that defines SchedulerPolicy); callers convert once via
/// parsePolicyName. Value validation and error message formats are
/// preserved from the historical per-CLI copies so golden tests keep
/// passing byte-identically.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SUPPORT_CLIOPTIONS_H
#define BSCHED_SUPPORT_CLIOPTIONS_H

#include "support/ResourceGovernor.h"

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace bsched {

/// Parses a decimal count of at most \p Max into \p Out; false (leaving
/// \p Out alone) on empty text, a sign, leading space, trailing garbage,
/// or a value above \p Max. The one integer flag parser of every CLI.
bool parseCount(const char *Text, uint64_t &Out,
                uint64_t Max = std::numeric_limits<uint64_t>::max());

/// Parses a finite non-negative decimal number into \p Out; false on
/// empty text, a sign, leading space, trailing garbage, inf or nan, or a
/// value that overflows a double.
bool parseNonNegative(const char *Text, double &Out);

/// The flags shared across CLIs, as parsed. Fields a tool did not opt
/// into keep their defaults.
struct CliCommon {
  /// --policy/--candidate value, verbatim; HasPolicy tells "given" apart
  /// from "defaulted". Convert with parsePolicyName (pipeline layer).
  std::string PolicyText;
  bool HasPolicy = false;

  bool Json = false;       ///< --json: machine-readable stdout.
  std::string TraceOut;    ///< --trace-out FILE / --trace-out=FILE.
  std::string ConfigFile;  ///< --config FILE: PipelineConfig JSON.
  ResourceBudget Budget;   ///< --deadline-ms / --max-instrs.

  /// --log-file FILE / --log-level LEVEL, carried as text (support sits
  /// below the obs layer that defines LogLevel); callers hand both to
  /// configureGlobalLogger, which validates the level name.
  std::string LogFile;
  std::string LogLevelText;
};

/// Registers-then-parses the common flag set.
class CliOptionParser {
public:
  /// Which common flags this CLI accepts (a rejected flag falls through
  /// as NotMine, so the tool's usage error fires exactly as before).
  enum Want : unsigned {
    WantPolicy = 1u << 0,    ///< --policy <name>
    WantCandidate = 1u << 1, ///< --candidate <name> (same slot as policy)
    WantJson = 1u << 2,      ///< --json
    WantTrace = 1u << 3,     ///< --trace-out FILE | --trace-out=FILE
    WantBudget = 1u << 4,    ///< --deadline-ms N, --max-instrs N
    WantConfig = 1u << 5,    ///< --config FILE
    WantLog = 1u << 6,       ///< --log-file FILE, --log-level LEVEL
  };

  explicit CliOptionParser(unsigned Wanted) : Wanted(Wanted) {}

  enum class Match : uint8_t {
    Consumed, ///< The flag (and value) was taken; continue the loop.
    NotMine,  ///< Not a common flag; the CLI handles it.
    Error,    ///< A common flag with a bad/missing value; see error().
  };

  /// Offers Argv[I] (advancing \p I past any consumed value argument).
  Match tryParse(int Argc, char **Argv, int &I);

  /// The formatted "error: ..." message after Match::Error.
  const std::string &error() const { return ErrorText; }

  const CliCommon &options() const { return Options; }
  CliCommon &options() { return Options; }

  /// Usage-line fragment for the accepted common flags, e.g.
  /// "[--candidate <policy>] [--json] [--deadline-ms N]".
  std::string usageFragment() const;

private:
  Match fail(std::string Message) {
    ErrorText = std::move(Message);
    return Match::Error;
  }

  unsigned Wanted;
  CliCommon Options;
  std::string ErrorText;
};

} // namespace bsched

#endif // BSCHED_SUPPORT_CLIOPTIONS_H
