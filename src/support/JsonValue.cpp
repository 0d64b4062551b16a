//===- support/JsonValue.cpp - JSON document parser -----------------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "support/JsonValue.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

using namespace bsched;

std::string_view JsonValue::kindName() const {
  switch (K) {
  case Kind::Null:
    return "null";
  case Kind::Bool:
    return "boolean";
  case Kind::Number:
    return "number";
  case Kind::String:
    return "string";
  case Kind::Array:
    return "array";
  case Kind::Object:
    return "object";
  }
  return "value";
}

const JsonValue *JsonValue::find(std::string_view Key) const {
  for (const Member &M : Members)
    if (M.first == Key)
      return &M.second;
  return nullptr;
}

bool JsonValue::asUInt64(uint64_t &Out) const {
  if (HasInteger) {
    Out = Integer;
    return true;
  }
  if (K != Kind::Number || Number < 0.0 ||
      Number > 18446744073709549568.0 /* largest double < 2^64 */ ||
      Number != std::floor(Number))
    return false;
  Out = static_cast<uint64_t>(Number);
  return true;
}

JsonValue JsonValue::makeBool(bool V) {
  JsonValue J;
  J.K = Kind::Bool;
  J.Bool = V;
  return J;
}

JsonValue JsonValue::makeNumber(double V) {
  JsonValue J;
  J.K = Kind::Number;
  J.Number = V;
  return J;
}

JsonValue JsonValue::makeInteger(uint64_t V) {
  JsonValue J = makeNumber(static_cast<double>(V));
  J.HasInteger = true;
  J.Integer = V;
  return J;
}

JsonValue JsonValue::makeString(std::string V) {
  JsonValue J;
  J.K = Kind::String;
  J.Str = std::move(V);
  return J;
}

JsonValue JsonValue::makeArray(std::vector<JsonValue> V) {
  JsonValue J;
  J.K = Kind::Array;
  J.Elements = std::move(V);
  return J;
}

JsonValue JsonValue::makeObject(std::vector<Member> V) {
  JsonValue J;
  J.K = Kind::Object;
  J.Members = std::move(V);
  return J;
}

namespace {

/// Recursive-descent parser over a byte buffer. Tracks line/column for
/// diagnostics; never throws, never reads past the end.
class JsonParser {
public:
  JsonParser(std::string_view Text, unsigned MaxDepth)
      : Text(Text), MaxDepth(MaxDepth) {}

  ErrorOr<JsonValue> parse() {
    skipWs();
    JsonValue Root;
    if (!parseValue(Root, 0))
      return takeError();
    skipWs();
    if (Pos != Text.size())
      return fail("trailing garbage after the JSON document");
    return Root;
  }

private:
  bool parseValue(JsonValue &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return failBool("JSON nesting exceeds the depth limit (" +
                      std::to_string(MaxDepth) + ")");
    if (Pos == Text.size())
      return failBool("unexpected end of input, expected a value");
    switch (Text[Pos]) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = JsonValue::makeString(std::move(S));
      return true;
    }
    case 't':
      if (!literal("true"))
        return false;
      Out = JsonValue::makeBool(true);
      return true;
    case 'f':
      if (!literal("false"))
        return false;
      Out = JsonValue::makeBool(false);
      return true;
    case 'n':
      if (!literal("null"))
        return false;
      Out = JsonValue();
      return true;
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(JsonValue &Out, unsigned Depth) {
    advance(); // '{'
    std::vector<JsonValue::Member> Members;
    skipWs();
    if (peek() == '}') {
      advance();
      Out = JsonValue::makeObject(std::move(Members));
      return true;
    }
    while (true) {
      skipWs();
      if (peek() != '"')
        return failBool("expected a string object key");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (peek() != ':')
        return failBool("expected ':' after object key");
      advance();
      skipWs();
      JsonValue V;
      if (!parseValue(V, Depth + 1))
        return false;
      Members.emplace_back(std::move(Key), std::move(V));
      skipWs();
      if (peek() == ',') {
        advance();
        continue;
      }
      if (peek() == '}') {
        advance();
        Out = JsonValue::makeObject(std::move(Members));
        return true;
      }
      return failBool("expected ',' or '}' in object");
    }
  }

  bool parseArray(JsonValue &Out, unsigned Depth) {
    advance(); // '['
    std::vector<JsonValue> Elements;
    skipWs();
    if (peek() == ']') {
      advance();
      Out = JsonValue::makeArray(std::move(Elements));
      return true;
    }
    while (true) {
      skipWs();
      JsonValue V;
      if (!parseValue(V, Depth + 1))
        return false;
      Elements.push_back(std::move(V));
      skipWs();
      if (peek() == ',') {
        advance();
        continue;
      }
      if (peek() == ']') {
        advance();
        Out = JsonValue::makeArray(std::move(Elements));
        return true;
      }
      return failBool("expected ',' or ']' in array");
    }
  }

  bool parseString(std::string &Out) {
    advance(); // '"'
    Out.clear();
    while (true) {
      if (Pos == Text.size())
        return failBool("unterminated string");
      char C = Text[Pos];
      if (static_cast<unsigned char>(C) < 0x20)
        return failBool("unescaped control character in string");
      advance();
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos == Text.size())
        return failBool("unterminated escape sequence");
      char E = Text[Pos];
      advance();
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Code = 0;
        if (!hex4(Code))
          return false;
        // Basic-plane decode to UTF-8; surrogate pairs are passed through
        // as two 3-byte sequences (the writer never emits them).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return failBool(std::string("invalid escape '\\") + E + "'");
      }
    }
  }

  bool hex4(unsigned &Out) {
    Out = 0;
    for (int I = 0; I != 4; ++I) {
      if (Pos == Text.size())
        return failBool("unterminated \\u escape");
      char C = Text[Pos];
      unsigned Digit;
      if (C >= '0' && C <= '9')
        Digit = static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Digit = static_cast<unsigned>(C - 'a') + 10;
      else if (C >= 'A' && C <= 'F')
        Digit = static_cast<unsigned>(C - 'A') + 10;
      else
        return failBool("invalid \\u escape digit");
      Out = Out * 16 + Digit;
      advance();
    }
    return true;
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (peek() == '-')
      advance();
    if (!std::isdigit(static_cast<unsigned char>(peek())))
      return failBool("expected a value");
    while (std::isdigit(static_cast<unsigned char>(peek())))
      advance();
    if (Text[Start] != '-' && peek() != '.' && peek() != 'e' &&
        peek() != 'E') {
      // Bare digits: keep the exact value when it fits in 64 bits (the
      // double below rounds every integer above 2^53).
      uint64_t Integer = 0;
      if (std::from_chars(Text.data() + Start, Text.data() + Pos, Integer)
              .ec == std::errc()) {
        Out = JsonValue::makeInteger(Integer);
        return true;
      }
    }
    if (peek() == '.') {
      advance();
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        return failBool("digit required after decimal point");
      while (std::isdigit(static_cast<unsigned char>(peek())))
        advance();
    }
    if (peek() == 'e' || peek() == 'E') {
      advance();
      if (peek() == '+' || peek() == '-')
        advance();
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        return failBool("digit required in exponent");
      while (std::isdigit(static_cast<unsigned char>(peek())))
        advance();
    }
    // The slice is a valid strtod token by construction.
    std::string Token(Text.substr(Start, Pos - Start));
    Out = JsonValue::makeNumber(std::strtod(Token.c_str(), nullptr));
    return true;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return failBool("expected a value");
    for (size_t I = 0; I != Word.size(); ++I)
      advance();
    return true;
  }

  void skipWs() {
    while (Pos != Text.size()) {
      char C = Text[Pos];
      if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
        break;
      advance();
    }
  }

  char peek() const { return Pos == Text.size() ? '\0' : Text[Pos]; }

  void advance() {
    if (Text[Pos] == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    ++Pos;
  }

  bool failBool(std::string Message) {
    if (Error.Message.empty())
      Error = {Line, Col, std::move(Message), Severity::Error,
               DiagCode::JsonParseError};
    return false;
  }

  ErrorOr<JsonValue> fail(std::string Message) {
    failBool(std::move(Message));
    return takeError();
  }

  ErrorOr<JsonValue> takeError() { return Error; }

  std::string_view Text;
  unsigned MaxDepth;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Col = 1;
  Diagnostic Error;
};

} // namespace

ErrorOr<JsonValue> bsched::parseJson(std::string_view Text,
                                     unsigned MaxDepth) {
  return JsonParser(Text, MaxDepth).parse();
}

void JsonReader::error(DiagCode Code, std::string Message) {
  Diags.push_back({0, 0, std::move(Message), Severity::Error, Code});
}

bool JsonReader::read(const JsonValue &V, std::string_view Key, bool &Out) {
  if (!V.isBool()) {
    typeError(Key, "boolean", V);
    return false;
  }
  Out = V.asBool();
  return true;
}

bool JsonReader::read(const JsonValue &V, std::string_view Key,
                      double &Out) {
  if (!V.isNumber()) {
    typeError(Key, "number", V);
    return false;
  }
  Out = V.asNumber();
  return true;
}

bool JsonReader::read(const JsonValue &V, std::string_view Key,
                      unsigned &Out) {
  uint64_t Wide = 0;
  if (!V.asUInt64(Wide) || Wide > 0xFFFFFFFFull) {
    typeError(Key, "non-negative integer", V);
    return false;
  }
  Out = static_cast<unsigned>(Wide);
  return true;
}

bool JsonReader::read(const JsonValue &V, std::string_view Key,
                      uint64_t &Out) {
  if (!V.asUInt64(Out)) {
    typeError(Key, "non-negative integer", V);
    return false;
  }
  return true;
}

bool JsonReader::read(const JsonValue &V, std::string_view Key,
                      std::string &Out) {
  if (!V.isString()) {
    typeError(Key, "string", V);
    return false;
  }
  Out = V.asString();
  return true;
}

void JsonReader::typeError(std::string_view Key, std::string_view Expected,
                           const JsonValue &V) {
  error(DiagCode::ProtocolBadValue,
        std::string(Noun) + " key '" + path(Key) + "' expects a " +
            std::string(Expected) + ", got " + std::string(V.kindName()));
}

void JsonReader::unknownKey(std::string_view Key) {
  error(DiagCode::ProtocolUnknownKey,
        "unknown " + std::string(Noun) + " key '" + path(Key) + "'");
}

void JsonReader::checkSchemaVersion(const JsonValue &V, unsigned Supported) {
  uint64_t Version = 0;
  if (read(V, "schema_version", Version) && Version != Supported)
    error(DiagCode::ProtocolSchemaVersion,
          "unsupported schema_version " + std::to_string(Version) +
              " (this build speaks v" + std::to_string(Supported) + ")");
}

std::string JsonReader::path(std::string_view Key) const {
  return Scope.empty() ? std::string(Key)
                       : std::string(Scope) + "." + std::string(Key);
}
