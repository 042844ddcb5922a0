//===- Symbol.cpp - Interned names -----------------------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "support/Symbol.h"

#include <functional>
#include <mutex>
#include <unordered_set>

using namespace closer;

constinit const std::string Symbol::EmptySpelling;

namespace {

/// Hashes std::string and std::string_view alike, so a lookup by view
/// builds no string.
struct SpellingHash {
  using is_transparent = void;
  size_t operator()(std::string_view S) const noexcept {
    return std::hash<std::string_view>()(S);
  }
};

/// The process-wide spelling table. Set nodes never move, so a Symbol can
/// point at the string inside its node; spellings are never erased.
struct SymbolTable {
  std::mutex Mutex;
  std::unordered_set<std::string, SpellingHash, std::equal_to<>>
      Spellings; ///< Guarded by Mutex.
};

SymbolTable &table() {
  static SymbolTable Table;
  return Table;
}

} // namespace

const std::string *Symbol::intern(std::string_view S) {
  if (S.empty())
    return &EmptySpelling;
  SymbolTable &T = table();
  std::lock_guard<std::mutex> Lock(T.Mutex);
  auto It = T.Spellings.find(S);
  if (It == T.Spellings.end())
    It = T.Spellings.emplace(S).first;
  return &*It;
}
