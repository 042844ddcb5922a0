//===- Lexer.h - MiniC lexer -----------------------------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for MiniC. Supports // and /* */ comments, decimal
/// integer literals, single-quoted atom literals (e.g. 'even', used as
/// symbolic message payloads exactly as in the paper's Figures 2 and 3;
/// lexed as interned nonnegative integers) and double-quoted strings which
/// are equivalent to atoms.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_LANG_LEXER_H
#define CLOSER_LANG_LEXER_H

#include "lang/Token.h"
#include "support/Diagnostics.h"
#include "support/Symbol.h"

#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace closer {

/// Maps atom spellings ('even', 'odd', ...) to small stable integers so that
/// symbolic payloads can flow through the integer-valued runtime. The table
/// is global to a compilation: the same spelling always lexes to the same
/// value, and values can be rendered back for traces. Thread-safe: a batch
/// close lexes and emits several modules at once against the global table.
class AtomTable {
public:
  /// Returns the unique id for \p Spelling, interning it if new. Ids start
  /// at 1000000 so they cannot collide with small program constants.
  int64_t intern(const std::string &Spelling);

  /// Returns the spelling for \p Id, or empty if \p Id is not an atom.
  std::string spelling(int64_t Id) const;

  /// True if \p Id falls in the atom id range and is interned. Ids below
  /// the range (every ordinary integer literal) answer without locking.
  bool isAtom(int64_t Id) const;

  /// The process-wide table used by the default pipeline.
  static AtomTable &global();

  static constexpr int64_t FirstAtomId = 1000000;

private:
  mutable std::mutex Mutex;
  /// Indexed by id - FirstAtomId. Guarded by Mutex.
  std::vector<Symbol> Spellings;
  /// Id - FirstAtomId of each spelling, keyed by the interned spelling
  /// (which outlives the caller's string). Guarded by Mutex.
  std::unordered_map<std::string_view, size_t> Index;
};

/// Lexes a MiniC buffer one token at a time. Errors are reported to the
/// DiagnosticEngine and the offending characters skipped, so lexing always
/// reaches the end of the buffer and reports every lexical error.
class Lexer {
public:
  /// Views \p Source without copying it: the caller keeps the text alive
  /// while the lexer runs. Lexing stops at the view's end, whatever
  /// follows it in memory.
  Lexer(std::string_view Source, DiagnosticEngine &Diags,
        AtomTable &Atoms = AtomTable::global());

  /// The next token. Malformed input yields no token (only a diagnostic);
  /// at the end of the buffer every call returns Eof.
  Token next();

  /// Lexes the rest of the buffer with next(). The result always ends with
  /// an Eof token.
  std::vector<Token> lexAll();

private:
  Token lexToken();
  Token makeToken(TokenKind Kind, SourceLoc Loc, std::string Text = "");
  void skipWhitespaceAndComments();
  char peek(unsigned Ahead = 0) const;
  char advance();
  bool atEnd() const { return Pos >= Buffer.size(); }
  SourceLoc currentLoc() const { return SourceLoc(Line, Column); }

  std::string_view Buffer;
  DiagnosticEngine &Diags;
  AtomTable &Atoms;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Column = 1;
};

} // namespace closer

#endif // CLOSER_LANG_LEXER_H
