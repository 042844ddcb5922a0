//===- Json.h - Minimal ordered JSON document writer -----------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small JSON *writer* shared by the run-artifact emitter
/// (`closer explore --stats-json`) and the benchmark outputs
/// (`bench/BenchUtil.h`). Build a tree of `json::Value`s and print it
/// compactly or pretty-printed; object members keep insertion order so the
/// emitted artifacts are deterministic and diffable across runs.
///
/// Deliberately write-only: the repo emits machine-readable artifacts for
/// *other* tools (scripts/check.sh, perf tracking) to consume; nothing in
/// the pipeline needs to parse JSON back.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_SUPPORT_JSON_H
#define CLOSER_SUPPORT_JSON_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace closer {
namespace json {

class Value {
public:
  enum class Kind { Null, Bool, Int, Uint, Double, String, Array, Object };

  Value() = default;
  Value(bool B) : K(Kind::Bool), BoolV(B) {}
  Value(int V) : K(Kind::Int), IntV(V) {}
  Value(int64_t V) : K(Kind::Int), IntV(V) {}
  Value(uint64_t V) : K(Kind::Uint), UintV(V) {}
  Value(double V) : K(Kind::Double), DoubleV(V) {}
  Value(const char *S) : K(Kind::String), StringV(S) {}
  Value(std::string S) : K(Kind::String), StringV(std::move(S)) {}

  static Value object() {
    Value V;
    V.K = Kind::Object;
    return V;
  }
  static Value array() {
    Value V;
    V.K = Kind::Array;
    return V;
  }

  Kind kind() const { return K; }

  /// Appends an object member (insertion order is serialization order).
  Value &add(std::string Key, Value V) {
    Members.emplace_back(std::move(Key), std::move(V));
    return *this;
  }

  /// Appends an array element.
  Value &push(Value V) {
    Elems.push_back(std::move(V));
    return *this;
  }

  size_t size() const {
    return K == Kind::Object ? Members.size() : Elems.size();
  }

  /// JSON string-escapes \p S (quotes, backslashes, control characters).
  static std::string escape(const std::string &S) {
    std::string Out;
    Out.reserve(S.size());
    for (unsigned char C : S) {
      switch (C) {
      case '"':
        Out += "\\\"";
        break;
      case '\\':
        Out += "\\\\";
        break;
      case '\b':
        Out += "\\b";
        break;
      case '\f':
        Out += "\\f";
        break;
      case '\n':
        Out += "\\n";
        break;
      case '\r':
        Out += "\\r";
        break;
      case '\t':
        Out += "\\t";
        break;
      default:
        if (C < 0x20) {
          char Buf[8];
          std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
          Out += Buf;
        } else {
          Out += static_cast<char>(C);
        }
      }
    }
    return Out;
  }

  /// Renders the value as JSON text. \p Pretty uses two-space indentation;
  /// compact mode matches the historical bench format (`"key": value` pairs
  /// separated by `, ` on one line).
  std::string str(bool Pretty = false) const {
    std::string Out;
    write(Out, Pretty, 0);
    if (Pretty)
      Out += '\n';
    return Out;
  }

private:
  void indent(std::string &Out, int Depth) const {
    Out.append(static_cast<size_t>(Depth) * 2, ' ');
  }

  void write(std::string &Out, bool Pretty, int Depth) const {
    switch (K) {
    case Kind::Null:
      Out += "null";
      break;
    case Kind::Bool:
      Out += BoolV ? "true" : "false";
      break;
    case Kind::Int:
      Out += std::to_string(IntV);
      break;
    case Kind::Uint:
      Out += std::to_string(UintV);
      break;
    case Kind::Double:
      if (!std::isfinite(DoubleV)) {
        Out += "null"; // JSON has no inf/nan.
      } else {
        char Buf[64];
        std::snprintf(Buf, sizeof(Buf), "%.9g", DoubleV);
        Out += Buf;
      }
      break;
    case Kind::String:
      Out += '"';
      Out += escape(StringV);
      Out += '"';
      break;
    case Kind::Array:
      if (Elems.empty()) {
        Out += "[]";
        break;
      }
      Out += '[';
      for (size_t I = 0; I != Elems.size(); ++I) {
        if (I)
          Out += Pretty ? "," : ", ";
        if (Pretty) {
          Out += '\n';
          indent(Out, Depth + 1);
        }
        Elems[I].write(Out, Pretty, Depth + 1);
      }
      if (Pretty) {
        Out += '\n';
        indent(Out, Depth);
      }
      Out += ']';
      break;
    case Kind::Object:
      if (Members.empty()) {
        Out += "{}";
        break;
      }
      Out += '{';
      for (size_t I = 0; I != Members.size(); ++I) {
        if (I)
          Out += Pretty ? "," : ", ";
        if (Pretty) {
          Out += '\n';
          indent(Out, Depth + 1);
        }
        Out += '"';
        Out += escape(Members[I].first);
        Out += "\": ";
        Members[I].second.write(Out, Pretty, Depth + 1);
      }
      if (Pretty) {
        Out += '\n';
        indent(Out, Depth);
      }
      Out += '}';
      break;
    }
  }

  Kind K = Kind::Null;
  bool BoolV = false;
  int64_t IntV = 0;
  uint64_t UintV = 0;
  double DoubleV = 0;
  std::string StringV;
  std::vector<std::pair<std::string, Value>> Members;
  std::vector<Value> Elems;
};

/// Writes \p V pretty-printed to \p Path; on failure returns false and, when
/// \p Err is non-null, stores a diagnostic there.
inline bool writeJsonFile(const std::string &Path, const Value &V,
                          std::string *Err = nullptr) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    if (Err)
      *Err = "cannot write '" + Path + "'";
    return false;
  }
  std::string Text = V.str(/*Pretty=*/true);
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok &= std::fclose(F) == 0;
  if (!Ok && Err)
    *Err = "short write to '" + Path + "'";
  return Ok;
}

} // namespace json
} // namespace closer

#endif // CLOSER_SUPPORT_JSON_H
