//===- support/JsonValue.h - JSON document parser --------------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The read side of the project's JSON story. support/Json.h writes every
/// machine-readable document; this file parses untrusted JSON back into a
/// small \c JsonValue tree so the versioned request/config API
/// (PipelineConfig::fromJson, the bsched_server wire protocol) can accept
/// documents from the outside world under the house error-handling rules:
/// malformed input comes back as a BS900 diagnostic with a line/column,
/// never as a crash or an exception.
///
/// Scope is deliberately RFC-8259-minimal: objects, arrays, strings (with
/// the standard escapes incl. \uXXXX basic-plane decoding), doubles,
/// booleans and null. A number written as bare digits that fits in 64 bits
/// also keeps its exact integer value, so uint64 fields above 2^53 read
/// back unrounded. Object members preserve document order and keep
/// duplicates (callers that reject unknown/duplicate keys can see them).
/// A fixed nesting-depth cap bounds recursion on hostile input.
///
/// \c JsonReader is the strict typed read of object members shared by the
/// config reader and the server envelope.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SUPPORT_JSONVALUE_H
#define BSCHED_SUPPORT_JSONVALUE_H

#include "support/Diagnostic.h"
#include "support/ErrorOr.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bsched {

/// One parsed JSON value. Plain tree data: movable, copyable, queryable.
class JsonValue {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  /// Object members in document order; duplicates preserved.
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// "null", "boolean", "number", "string", "array", "object" — for
  /// type-mismatch diagnostics.
  std::string_view kindName() const;

  bool asBool() const { return Bool; }
  double asNumber() const { return Number; }
  const std::string &asString() const { return Str; }
  const std::vector<JsonValue> &elements() const { return Elements; }
  const std::vector<Member> &members() const { return Members; }

  /// First member named \p Key, or null when absent. Objects only.
  const JsonValue *find(std::string_view Key) const;

  /// True when the number is integral and fits \p Out (non-negative). A
  /// bare-digits token is read exactly; any other spelling ("1e3", "2.0")
  /// goes through its double.
  bool asUInt64(uint64_t &Out) const;

  static JsonValue makeNull() { return JsonValue(); }
  static JsonValue makeBool(bool V);
  static JsonValue makeNumber(double V);
  /// A number token of bare digits: keeps \p V exactly beside its double.
  static JsonValue makeInteger(uint64_t V);
  static JsonValue makeString(std::string V);
  static JsonValue makeArray(std::vector<JsonValue> V);
  static JsonValue makeObject(std::vector<Member> V);

private:
  Kind K = Kind::Null;
  bool Bool = false;
  bool HasInteger = false; ///< Integer holds the token's exact value.
  double Number = 0.0;
  uint64_t Integer = 0;
  std::string Str;
  std::vector<JsonValue> Elements;
  std::vector<Member> Members;
};

/// Parses \p Text as exactly one JSON document (trailing whitespace
/// allowed, trailing garbage rejected). Failures are BS900 JsonParseError
/// diagnostics carrying the 1-based line/column of the offending byte.
/// \p MaxDepth bounds container nesting.
ErrorOr<JsonValue> parseJson(std::string_view Text, unsigned MaxDepth = 64);

/// Strict typed reads of object members, collecting every failure as a
/// structured diagnostic. A type mismatch is BS903 "<noun> key '<path>'
/// expects a <type>, got <kind>", where the path is \c Scope, a dot, and
/// the key ("budget.max_ticks"), or the key alone at the top level.
class JsonReader {
public:
  /// \p Noun names the document in messages: "config", "request".
  explicit JsonReader(std::string_view Noun) : Noun(Noun) {}

  std::vector<Diagnostic> Diags;

  /// The enclosing object's name while its members are read; empty at
  /// the top level.
  std::string_view Scope;

  void error(DiagCode Code, std::string Message);

  /// Each stores into \p Out and returns true, or reports a BS903 and
  /// leaves \p Out alone. Integers must be non-negative and fit \p Out.
  bool read(const JsonValue &V, std::string_view Key, bool &Out);
  bool read(const JsonValue &V, std::string_view Key, double &Out);
  bool read(const JsonValue &V, std::string_view Key, unsigned &Out);
  bool read(const JsonValue &V, std::string_view Key, uint64_t &Out);
  bool read(const JsonValue &V, std::string_view Key, std::string &Out);

  void typeError(std::string_view Key, std::string_view Expected,
                 const JsonValue &V);

  /// BS902 "unknown <noun> key '<path>'".
  void unknownKey(std::string_view Key);

  /// Reads "schema_version": BS903 unless a non-negative integer, BS901
  /// unless \p Supported.
  void checkSchemaVersion(const JsonValue &V, unsigned Supported);

  /// Scope-qualified \p Key, as messages render it.
  std::string path(std::string_view Key) const;

private:
  std::string_view Noun;
};

} // namespace bsched

#endif // BSCHED_SUPPORT_JSONVALUE_H
