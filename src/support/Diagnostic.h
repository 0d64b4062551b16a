//===- support/Diagnostic.h - Recoverable-error diagnostics ----*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recoverable-error infrastructure shared by every input-facing layer
/// (lexer, parser, verifier, frontend, pipeline, experiment harness).
///
/// Design rules (see DESIGN.md, "Error handling & robustness policy"):
///  - Anything derivable from *untrusted input* (text, CLI flags, config
///    structs a caller may fill from the outside world) reports a
///    \c Diagnostic and keeps going, or returns an \c ErrorOr / \c Status.
///  - Library code never prints and never throws: a \c DiagnosticEngine
///    *collects*; rendering is the caller's business.
///  - Every diagnostic carries a stable \c DiagCode so tests can assert
///    exact failures and harnesses can aggregate them.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SUPPORT_DIAGNOSTIC_H
#define BSCHED_SUPPORT_DIAGNOSTIC_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bsched {

/// How bad a diagnostic is. Only Error-severity diagnostics make a result
/// unusable; warnings ride along for the caller to surface.
enum class Severity : uint8_t {
  Note,
  Warning,
  Error,
};

/// "note", "warning", "error".
std::string_view severityName(Severity S);

/// Stable error codes, grouped by the layer that raises them. Codes render
/// as "BS<number>" ("BS201"); numbers are part of the public surface and
/// must not be reused once released.
enum class DiagCode : uint16_t {
  Unknown = 0,

  // Lexer: 100-199.
  LexUnexpectedChar = 100,
  LexBadRegisterClass = 101,
  LexBadRegisterNumber = 102,

  // Parser: 200-299.
  ParseExpectedToken = 200,
  ParseUnknownMnemonic = 201,
  ParseBadDestination = 202,
  ParseBadOperand = 203,
  ParseBadImmediate = 204,
  ParseBadKnownLatency = 205,
  ParseUnknownBranchTarget = 206,
  ParseNotSingleFunction = 207,

  // IR verifier: 300-399.
  VerifyTerminatorNotLast = 300,
  VerifyMissingDest = 301,
  VerifyInvalidOperand = 302,
  VerifyMissingAliasClass = 303,
  VerifyBranchOutOfRange = 304,
  VerifyOperandClass = 305,
  VerifyNoBlocks = 306,
  VerifyEmptyBlock = 307,

  // Kernel-language frontend: 400-499.
  FrontendSyntax = 400,
  FrontendSemantic = 401,

  // Pipeline: 500-599.
  PipelineBadConfig = 500,
  PipelineInvalidInput = 501,
  PipelineInvalidOutput = 502,
  PipelineUnknownPolicy = 503,
  PipelineCertificationFailed = 504,

  // Experiment / simulation harness: 600-699.
  SimBadConfig = 600,

  // Dataflow analysis & lint: 700-709.
  LintUseBeforeDef = 700,
  LintDeadValue = 701,
  LintRedundantLoad = 702,
  LintStoreForward = 703,
  LintDeadStore = 704,

  // Schedule certifier: 710-719.
  CertifyNotPermutation = 710,
  CertifyDependenceViolated = 711,
  CertifyLatencyViolated = 712,
  CertifyIssueWidthExceeded = 713,
  CertifyScheduleMalformed = 714,

  // Allocation certifier: 720-729.
  CertifyAllocShapeMismatch = 720,
  CertifyAllocWrongValue = 721,
  CertifyAllocRegisterBound = 722,
  CertifyAllocBadSpill = 723,
  CertifyAllocMissingInstruction = 724,

  // Memory-dependence certifier: 730-739.
  CertifyMemDepShapeMismatch = 730, ///< DAG does not mirror the block.
  CertifyMemDepMissingEdge = 731,   ///< Required ordering has no DAG path
                                    ///< and no verifiable NoAlias proof.
  CertifyMemDepFalseNoAlias = 732,  ///< Claimed NoAlias refuted.
  CertifyMemDepMalformedEdge = 733, ///< Memory edge with a non-memory
                                    ///< endpoint or wrong direction.
  CertifyMemDepFalseMustAlias = 734, ///< Claimed MustAlias refuted.

  // Resource governor (budgets & degradation): 800-809.
  GovernorDeadlineExceeded = 800,
  GovernorTickBudgetExceeded = 801,
  GovernorBlockTooLarge = 802,
  GovernorDagTooDense = 803,
  GovernorClosureTooLarge = 804,
  GovernorSpillBudgetExceeded = 805,

  // Fault injection & captured faults: 810-819.
  InjectedFault = 810,
  EngineCellFault = 811,

  // JSON / versioned request & config schema / wire protocol: 900-919.
  JsonParseError = 900,        ///< Malformed JSON document.
  ProtocolSchemaVersion = 901, ///< Unsupported schema_version.
  ProtocolUnknownKey = 902,    ///< Unknown key in a versioned document.
  ProtocolBadValue = 903,      ///< Wrong type / out-of-range field value.
  ProtocolMissingField = 904,  ///< Required field absent.
  WireFrameTooLarge = 905,     ///< Frame length exceeds the server limit.
  WireFrameTruncated = 906,    ///< Stream ended mid-frame.
  WireIo = 907,                ///< Socket/file I/O failure.
  ServerShutdown = 908,        ///< Request refused: server stopping.
};

/// Renders \p Code as "BS201".
std::string diagCodeString(DiagCode Code);

/// One collected diagnostic. Line/Col are 1-based; 0 means "no location"
/// (e.g. whole-function verifier findings).
///
/// Field order keeps the historical aggregate form `{Line, Col, Message}`
/// valid; severity and code default to Error/Unknown.
struct Diagnostic {
  unsigned Line = 0;
  unsigned Col = 0;
  std::string Message;
  Severity Sev = Severity::Error;
  DiagCode Code = DiagCode::Unknown;

  bool isError() const { return Sev == Severity::Error; }

  /// Renders "line L, col C: message" (the historical ParseDiag format,
  /// kept stable for golden tests; location omitted when absent).
  std::string str() const;

  /// Renders the full structured form a CLI should print:
  /// "<file>:L:C: error[BS201]: message". \p Filename may be empty.
  std::string formatted(std::string_view Filename = {}) const;
};

/// Collects diagnostics; never prints. Layers thread one engine through a
/// whole run so failures aggregate instead of aborting.
class DiagnosticEngine {
public:
  /// Appends a fully-formed diagnostic.
  void report(Diagnostic D) { Diags.push_back(std::move(D)); }

  /// Reports an error with a source location (0/0 = none).
  void error(DiagCode Code, unsigned Line, unsigned Col,
             std::string Message) {
    Diags.push_back({Line, Col, std::move(Message), Severity::Error, Code});
  }

  /// Reports a warning with a source location (0/0 = none).
  void warning(DiagCode Code, unsigned Line, unsigned Col,
               std::string Message) {
    Diags.push_back({Line, Col, std::move(Message), Severity::Warning, Code});
  }

  /// Appends every diagnostic of \p Other.
  void append(std::vector<Diagnostic> Other) {
    for (Diagnostic &D : Other)
      Diags.push_back(std::move(D));
  }

  bool hasErrors() const {
    for (const Diagnostic &D : Diags)
      if (D.isError())
        return true;
    return false;
  }

  unsigned errorCount() const {
    unsigned N = 0;
    for (const Diagnostic &D : Diags)
      N += D.isError();
    return N;
  }

  bool empty() const { return Diags.empty(); }

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// Moves the collected diagnostics out, leaving the engine empty.
  std::vector<Diagnostic> take() { return std::move(Diags); }

private:
  std::vector<Diagnostic> Diags;
};

/// Joins diagnostics into one newline-separated message (str() form).
std::string joinDiagnostics(const std::vector<Diagnostic> &Diags);

} // namespace bsched

#endif // BSCHED_SUPPORT_DIAGNOSTIC_H
