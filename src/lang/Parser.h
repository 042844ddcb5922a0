//===- Parser.h - MiniC recursive-descent parser ---------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for MiniC. Grammar sketch:
///
/// \code
///   program    := topDecl*
///   topDecl    := "chan" ID "[" INT "]" ";"
///               | "sem" ID "(" INT ")" ";"
///               | "shared" ID ("=" INT)? ";"
///               | "var" ID ("[" INT "]")? ("=" INT)? ";"
///               | "proc" ID "(" (ID ("," ID)*)? ")" block
///               | "process" ID "=" ID "(" (processArg,*)? ")" ";"
///   processArg := "env" | ("-")? INT
///   stmt       := "var" ID ("[" INT "]")? ("=" expr)? ";"
///               | lvalue "=" expr ";"
///               | "if" "(" expr ")" stmt ("else" stmt)?
///               | "while" "(" expr ")" stmt
///               | "for" "(" simpleStmt? ";" expr? ";" simpleStmt? ")" stmt
///               | "switch" "(" expr ")" "{" caseArm* defaultArm? "}"
///               | ID "(" args ")" ";"
///               | "return" expr? ";" | "break" ";" | "continue" ";"
///               | "goto" ID ";" | ID ":" stmt | block | ";"
///   expr       := or-expr with C precedence; unary - ! * &; primaries:
///                 INT, atom, ID, ID[expr], ID(args), (expr)
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_LANG_PARSER_H
#define CLOSER_LANG_PARSER_H

#include "lang/Ast.h"
#include "lang/Token.h"
#include "support/Diagnostics.h"

#include <memory>

namespace closer {

class Lexer;

/// Parses the tokens it pulls from a Lexer into a Program, holding at most
/// one token of lookahead. On error, diagnostics are emitted and parsing
/// recovers at statement/declaration boundaries; the caller must check
/// Diags.hasErrors() before trusting the result.
class Parser {
public:
  Parser(Lexer &Lex, DiagnosticEngine &Diags);

  /// Parses a whole compilation unit.
  std::unique_ptr<Program> parseProgram();

private:
  // Token stream helpers. peek(1) is the only lookahead the grammar needs.
  const Token &peek(unsigned Ahead = 0);
  const Token &current() const { return Cur; }
  Token consume();
  bool check(TokenKind Kind) const { return current().is(Kind); }
  bool match(TokenKind Kind);
  bool expect(TokenKind Kind, const char *Context);
  void skipToSync();

  // Declarations.
  void parseTopDecl(Program &Prog);
  void parseChanDecl(Program &Prog);
  void parseSemDecl(Program &Prog);
  void parseSharedDecl(Program &Prog);
  void parseGlobalDecl(Program &Prog);
  void parseProcDecl(Program &Prog);
  void parseProcessDecl(Program &Prog);

  // Statements.
  StmtPtr parseStmt();
  StmtPtr parseBlock();
  StmtPtr parseVarDeclStmt();
  StmtPtr parseIf();
  StmtPtr parseWhile();
  StmtPtr parseFor();
  StmtPtr parseSwitch();
  StmtPtr parseReturn();
  StmtPtr parseSimpleStmt(bool ExpectSemicolon);
  StmtPtr parseAssignOrCall(bool ExpectSemicolon);

  // Expressions (precedence climbing).
  ExprPtr parseExpr();
  ExprPtr parseOr();
  ExprPtr parseAnd();
  ExprPtr parseEquality();
  ExprPtr parseRelational();
  ExprPtr parseAdditive();
  ExprPtr parseMultiplicative();
  ExprPtr parseUnary();
  ExprPtr parsePrimary();

  /// Parses an optionally negated integer literal; reports and returns 0 on
  /// failure.
  int64_t parseConstInt(const char *Context);

  Lexer &Lex;
  DiagnosticEngine &Diags;
  Token Cur;            ///< The current token.
  Token Next;           ///< The token after it, once peek(1) pulled it.
  bool HasNext = false;
};

/// Convenience entry point: lex + parse \p Source. Returns nullptr when the
/// source has lexical or syntactic errors (details in \p Diags). A source
/// with lexical errors reports only those.
std::unique_ptr<Program> parseMiniC(const std::string &Source,
                                    DiagnosticEngine &Diags);

} // namespace closer

#endif // CLOSER_LANG_PARSER_H
