//===- Symbol.h - Interned names -------------------------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbol: an 8-byte handle on an interned spelling. The AST and the CFG
/// hold one name per variable reference, call and label, and a 5 MB source
/// carries over a million of them; a Symbol stores each distinct spelling
/// once, process-wide, so a name costs one pointer and cloning an
/// expression tree copies pointers instead of strings.
///
/// Equal spellings intern to the same pointer, so Symbol == Symbol is a
/// pointer compare. A Symbol reads as the std::string it names (implicit
/// conversions to `const std::string &` and `std::string_view`), compares
/// equal to strings and C strings by spelling, and concatenates with `+`.
/// Spellings live until the process exits.
///
/// The pointers differ from run to run, so Symbol has no `<`, and no
/// unordered container keyed by Symbol may be iterated to produce output.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_SUPPORT_SYMBOL_H
#define CLOSER_SUPPORT_SYMBOL_H

#include <string>
#include <string_view>

namespace closer {

class Symbol {
public:
  /// The empty name.
  Symbol() noexcept : Spelling(&EmptySpelling) {}
  /// Interns \p S. Thread-safe; a spelling already in the table costs one
  /// hash lookup under the table's lock and no allocation.
  Symbol(std::string_view S) : Spelling(intern(S)) {}
  Symbol(const std::string &S) : Symbol(std::string_view(S)) {}
  Symbol(const char *S) : Symbol(std::string_view(S)) {}

  const std::string &str() const { return *Spelling; }
  operator const std::string &() const { return *Spelling; }
  operator std::string_view() const { return *Spelling; }

  friend bool operator==(const Symbol &A, const Symbol &B) {
    return A.Spelling == B.Spelling;
  }
  friend bool operator==(const Symbol &A, const std::string &B) {
    return *A.Spelling == B;
  }
  friend bool operator==(const Symbol &A, const char *B) {
    return *A.Spelling == B;
  }

  friend std::string operator+(const char *A, const Symbol &B) {
    return A + *B.Spelling;
  }
  friend std::string operator+(const std::string &A, const Symbol &B) {
    return A + *B.Spelling;
  }
  friend std::string operator+(const Symbol &A, const char *B) {
    return *A.Spelling + B;
  }

private:
  static const std::string *intern(std::string_view S);

  static const std::string EmptySpelling;

  const std::string *Spelling;
};

} // namespace closer

#endif // CLOSER_SUPPORT_SYMBOL_H
