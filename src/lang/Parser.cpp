//===- Parser.cpp - MiniC recursive-descent parser -------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "lang/Lexer.h"

#include <cassert>
#include <string>
#include <utility>

using namespace closer;

Parser::Parser(Lexer &Lex, DiagnosticEngine &Diags)
    : Lex(Lex), Diags(Diags), Cur(Lex.next()) {}

const Token &Parser::peek(unsigned Ahead) {
  assert(Ahead <= 1 && "the parser keeps one token of lookahead");
  if (Ahead == 0)
    return Cur;
  if (!HasNext) {
    Next = Lex.next();
    HasNext = true;
  }
  return Next;
}

// At Eof the lexer keeps returning Eof, so consuming it is a no-op.
Token Parser::consume() {
  Token Tok = std::move(Cur);
  if (HasNext) {
    Cur = std::move(Next);
    HasNext = false;
  } else {
    Cur = Lex.next();
  }
  return Tok;
}

bool Parser::match(TokenKind Kind) {
  if (!check(Kind))
    return false;
  consume();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (match(Kind))
    return true;
  Diags.error(current().Loc, std::string("expected ") + tokenKindName(Kind) +
                                 " " + Context + ", found " +
                                 tokenKindName(current().Kind));
  return false;
}

/// Skips tokens until a likely declaration/statement boundary so one syntax
/// error does not cascade.
void Parser::skipToSync() {
  while (!check(TokenKind::Eof)) {
    if (match(TokenKind::Semicolon))
      return;
    switch (current().Kind) {
    case TokenKind::RBrace:
    case TokenKind::KwProc:
    case TokenKind::KwProcess:
    case TokenKind::KwChan:
    case TokenKind::KwSem:
    case TokenKind::KwShared:
      return;
    default:
      consume();
    }
  }
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

std::unique_ptr<Program> Parser::parseProgram() {
  auto Prog = std::make_unique<Program>();
  while (!check(TokenKind::Eof)) {
    unsigned ErrorsBefore = Diags.errorCount();
    parseTopDecl(*Prog);
    if (Diags.errorCount() > ErrorsBefore)
      skipToSync();
  }
  return Prog;
}

void Parser::parseTopDecl(Program &Prog) {
  switch (current().Kind) {
  case TokenKind::KwChan:
    parseChanDecl(Prog);
    return;
  case TokenKind::KwSem:
    parseSemDecl(Prog);
    return;
  case TokenKind::KwShared:
    parseSharedDecl(Prog);
    return;
  case TokenKind::KwVar:
    parseGlobalDecl(Prog);
    return;
  case TokenKind::KwProc:
    parseProcDecl(Prog);
    return;
  case TokenKind::KwProcess:
    parseProcessDecl(Prog);
    return;
  default:
    Diags.error(current().Loc,
                std::string("expected a top-level declaration, found ") +
                    tokenKindName(current().Kind));
    consume();
  }
}

int64_t Parser::parseConstInt(const char *Context) {
  bool Negate = match(TokenKind::Minus);
  if (!check(TokenKind::IntLiteral)) {
    Diags.error(current().Loc,
                std::string("expected integer constant ") + Context);
    return 0;
  }
  int64_t Value = consume().IntValue;
  return Negate ? -Value : Value;
}

void Parser::parseChanDecl(Program &Prog) {
  CommDecl Decl;
  Decl.Kind = CommKind::Channel;
  Decl.Loc = consume().Loc; // 'chan'
  if (!check(TokenKind::Identifier)) {
    Diags.error(current().Loc, "expected channel name");
    return;
  }
  Decl.Name = consume().Text;
  if (!expect(TokenKind::LBracket, "before channel capacity"))
    return;
  Decl.Param = parseConstInt("as channel capacity");
  if (Decl.Param < 1) {
    Diags.error(Decl.Loc, "channel capacity must be >= 1");
    Decl.Param = 1;
  }
  expect(TokenKind::RBracket, "after channel capacity");
  expect(TokenKind::Semicolon, "after channel declaration");
  Prog.Comms.push_back(std::move(Decl));
}

void Parser::parseSemDecl(Program &Prog) {
  CommDecl Decl;
  Decl.Kind = CommKind::Semaphore;
  Decl.Loc = consume().Loc; // 'sem'
  if (!check(TokenKind::Identifier)) {
    Diags.error(current().Loc, "expected semaphore name");
    return;
  }
  Decl.Name = consume().Text;
  if (!expect(TokenKind::LParen, "before semaphore initial count"))
    return;
  Decl.Param = parseConstInt("as semaphore initial count");
  if (Decl.Param < 0) {
    Diags.error(Decl.Loc, "semaphore initial count must be >= 0");
    Decl.Param = 0;
  }
  expect(TokenKind::RParen, "after semaphore initial count");
  expect(TokenKind::Semicolon, "after semaphore declaration");
  Prog.Comms.push_back(std::move(Decl));
}

void Parser::parseSharedDecl(Program &Prog) {
  CommDecl Decl;
  Decl.Kind = CommKind::SharedVar;
  Decl.Loc = consume().Loc; // 'shared'
  if (!check(TokenKind::Identifier)) {
    Diags.error(current().Loc, "expected shared variable name");
    return;
  }
  Decl.Name = consume().Text;
  if (match(TokenKind::Assign))
    Decl.Param = parseConstInt("as shared variable initial value");
  expect(TokenKind::Semicolon, "after shared variable declaration");
  Prog.Comms.push_back(std::move(Decl));
}

void Parser::parseGlobalDecl(Program &Prog) {
  GlobalDecl Decl;
  Decl.Loc = consume().Loc; // 'var'
  if (!check(TokenKind::Identifier)) {
    Diags.error(current().Loc, "expected global variable name");
    return;
  }
  Decl.Name = consume().Text;
  if (match(TokenKind::LBracket)) {
    Decl.ArraySize = parseConstInt("as array size");
    if (Decl.ArraySize < 1) {
      Diags.error(Decl.Loc, "array size must be >= 1");
      Decl.ArraySize = 1;
    }
    expect(TokenKind::RBracket, "after array size");
  }
  if (match(TokenKind::Assign)) {
    if (Decl.ArraySize >= 0)
      Diags.error(current().Loc, "array globals cannot have initializers");
    Decl.Init = parseConstInt("as global initializer");
  }
  expect(TokenKind::Semicolon, "after global declaration");
  Prog.Globals.push_back(std::move(Decl));
}

void Parser::parseProcDecl(Program &Prog) {
  ProcDecl Decl;
  Decl.Loc = consume().Loc; // 'proc'
  if (!check(TokenKind::Identifier)) {
    Diags.error(current().Loc, "expected procedure name");
    return;
  }
  Decl.Name = consume().Text;
  if (!expect(TokenKind::LParen, "after procedure name"))
    return;
  if (!check(TokenKind::RParen)) {
    do {
      if (!check(TokenKind::Identifier)) {
        Diags.error(current().Loc, "expected parameter name");
        break;
      }
      Token Tok = consume();
      Decl.Params.push_back({Tok.Text, Tok.Loc});
    } while (match(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "after parameter list");
  if (!check(TokenKind::LBrace)) {
    Diags.error(current().Loc, "expected procedure body");
    return;
  }
  Decl.Body = parseBlock();
  Prog.Procs.push_back(std::move(Decl));
}

void Parser::parseProcessDecl(Program &Prog) {
  ProcessDecl Decl;
  Decl.Loc = consume().Loc; // 'process'
  if (!check(TokenKind::Identifier)) {
    Diags.error(current().Loc, "expected process name");
    return;
  }
  Decl.Name = consume().Text;
  if (!expect(TokenKind::Assign, "after process name"))
    return;
  if (!check(TokenKind::Identifier)) {
    Diags.error(current().Loc, "expected procedure name in process binding");
    return;
  }
  Decl.ProcName = consume().Text;
  if (!expect(TokenKind::LParen, "after procedure name"))
    return;
  if (!check(TokenKind::RParen)) {
    do {
      ProcessArg Arg;
      Arg.Loc = current().Loc;
      if (match(TokenKind::KwEnv)) {
        Arg.IsEnv = true;
      } else {
        Arg.Value = parseConstInt("as process argument");
      }
      Decl.Args.push_back(Arg);
    } while (match(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "after process arguments");
  expect(TokenKind::Semicolon, "after process declaration");
  Prog.Processes.push_back(std::move(Decl));
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

StmtPtr Parser::parseBlock() {
  auto Block = std::make_unique<Stmt>(StmtKind::Block, current().Loc);
  expect(TokenKind::LBrace, "to open block");
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
    unsigned ErrorsBefore = Diags.errorCount();
    if (StmtPtr S = parseStmt())
      Block->Body.push_back(std::move(S));
    if (Diags.errorCount() > ErrorsBefore)
      skipToSync();
  }
  expect(TokenKind::RBrace, "to close block");
  return Block;
}

StmtPtr Parser::parseStmt() {
  switch (current().Kind) {
  case TokenKind::KwVar:
    return parseVarDeclStmt();
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwFor:
    return parseFor();
  case TokenKind::KwSwitch:
    return parseSwitch();
  case TokenKind::KwReturn:
    return parseReturn();
  case TokenKind::KwBreak: {
    auto S = std::make_unique<Stmt>(StmtKind::Break, consume().Loc);
    expect(TokenKind::Semicolon, "after 'break'");
    return S;
  }
  case TokenKind::KwContinue: {
    auto S = std::make_unique<Stmt>(StmtKind::Continue, consume().Loc);
    expect(TokenKind::Semicolon, "after 'continue'");
    return S;
  }
  case TokenKind::KwGoto: {
    auto S = std::make_unique<Stmt>(StmtKind::Goto, consume().Loc);
    if (check(TokenKind::Identifier))
      S->Name = consume().Text;
    else
      Diags.error(current().Loc, "expected label after 'goto'");
    expect(TokenKind::Semicolon, "after goto target");
    return S;
  }
  case TokenKind::LBrace:
    return parseBlock();
  case TokenKind::Semicolon:
    return std::make_unique<Stmt>(StmtKind::Empty, consume().Loc);
  case TokenKind::Identifier:
    // Label?  "name : stmt"
    if (peek(1).is(TokenKind::Colon)) {
      auto S = std::make_unique<Stmt>(StmtKind::Label, current().Loc);
      S->Name = consume().Text;
      consume(); // ':'
      S->ThenBody = parseStmt();
      return S;
    }
    return parseSimpleStmt(/*ExpectSemicolon=*/true);
  case TokenKind::Star:
    return parseSimpleStmt(/*ExpectSemicolon=*/true);
  default:
    Diags.error(current().Loc, std::string("expected a statement, found ") +
                                   tokenKindName(current().Kind));
    consume();
    return nullptr;
  }
}

StmtPtr Parser::parseVarDeclStmt() {
  auto S = std::make_unique<Stmt>(StmtKind::VarDecl, consume().Loc); // 'var'
  if (!check(TokenKind::Identifier)) {
    Diags.error(current().Loc, "expected variable name after 'var'");
    return nullptr;
  }
  S->Name = consume().Text;
  if (match(TokenKind::LBracket)) {
    S->ArraySize = parseConstInt("as array size");
    if (S->ArraySize < 1) {
      Diags.error(S->Loc, "array size must be >= 1");
      S->ArraySize = 1;
    }
    expect(TokenKind::RBracket, "after array size");
  }
  if (match(TokenKind::Assign)) {
    if (S->ArraySize >= 0)
      Diags.error(current().Loc, "array variables cannot have initializers");
    S->Cond = parseExpr();
  }
  expect(TokenKind::Semicolon, "after variable declaration");
  return S;
}

StmtPtr Parser::parseIf() {
  auto S = std::make_unique<Stmt>(StmtKind::If, consume().Loc); // 'if'
  expect(TokenKind::LParen, "after 'if'");
  S->Cond = parseExpr();
  expect(TokenKind::RParen, "after if condition");
  S->ThenBody = parseStmt();
  if (match(TokenKind::KwElse))
    S->ElseBody = parseStmt();
  return S;
}

StmtPtr Parser::parseWhile() {
  auto S = std::make_unique<Stmt>(StmtKind::While, consume().Loc); // 'while'
  expect(TokenKind::LParen, "after 'while'");
  S->Cond = parseExpr();
  expect(TokenKind::RParen, "after while condition");
  S->ThenBody = parseStmt();
  return S;
}

StmtPtr Parser::parseFor() {
  auto S = std::make_unique<Stmt>(StmtKind::For, consume().Loc); // 'for'
  expect(TokenKind::LParen, "after 'for'");
  if (!check(TokenKind::Semicolon)) {
    if (check(TokenKind::KwVar))
      S->InitStmt = parseVarDeclStmt(); // Consumes its ';'.
    else
      S->InitStmt = parseSimpleStmt(/*ExpectSemicolon=*/true);
  } else {
    consume();
  }
  if (!check(TokenKind::Semicolon))
    S->Cond = parseExpr();
  expect(TokenKind::Semicolon, "after for condition");
  if (!check(TokenKind::RParen))
    S->StepStmt = parseSimpleStmt(/*ExpectSemicolon=*/false);
  expect(TokenKind::RParen, "after for clauses");
  S->ThenBody = parseStmt();
  return S;
}

StmtPtr Parser::parseSwitch() {
  auto S = std::make_unique<Stmt>(StmtKind::Switch, consume().Loc); // 'switch'
  expect(TokenKind::LParen, "after 'switch'");
  S->Cond = parseExpr();
  expect(TokenKind::RParen, "after switch scrutinee");
  expect(TokenKind::LBrace, "to open switch body");
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
    if (match(TokenKind::KwCase)) {
      SwitchCase Arm;
      Arm.Loc = current().Loc;
      Arm.Value = parseConstInt("as case value");
      expect(TokenKind::Colon, "after case value");
      while (!check(TokenKind::KwCase) && !check(TokenKind::KwDefault) &&
             !check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
        if (StmtPtr Sub = parseStmt())
          Arm.Body.push_back(std::move(Sub));
        else
          break;
      }
      S->Cases.push_back(std::move(Arm));
      continue;
    }
    if (match(TokenKind::KwDefault)) {
      expect(TokenKind::Colon, "after 'default'");
      if (S->HasDefault)
        Diags.error(current().Loc, "duplicate default arm in switch");
      S->HasDefault = true;
      while (!check(TokenKind::KwCase) && !check(TokenKind::KwDefault) &&
             !check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
        if (StmtPtr Sub = parseStmt())
          S->DefaultBody.push_back(std::move(Sub));
        else
          break;
      }
      continue;
    }
    Diags.error(current().Loc, "expected 'case' or 'default' in switch body");
    skipToSync();
    break;
  }
  expect(TokenKind::RBrace, "to close switch body");
  return S;
}

StmtPtr Parser::parseReturn() {
  auto S = std::make_unique<Stmt>(StmtKind::Return, consume().Loc); // 'return'
  if (!check(TokenKind::Semicolon))
    S->Cond = parseExpr();
  expect(TokenKind::Semicolon, "after return statement");
  return S;
}

StmtPtr Parser::parseSimpleStmt(bool ExpectSemicolon) {
  return parseAssignOrCall(ExpectSemicolon);
}

/// Parses `lvalue = expr ;`, `*expr = expr ;`, `name[e] = expr ;` or
/// `name(args) ;`.
StmtPtr Parser::parseAssignOrCall(bool ExpectSemicolon) {
  SourceLoc Loc = current().Loc;

  // Call statement: name(...)
  if (check(TokenKind::Identifier) && peek(1).is(TokenKind::LParen)) {
    std::string Callee = consume().Text;
    consume(); // '('
    std::vector<ExprPtr> Args;
    if (!check(TokenKind::RParen)) {
      do {
        Args.push_back(parseExpr());
      } while (match(TokenKind::Comma));
    }
    expect(TokenKind::RParen, "after call arguments");
    auto S = std::make_unique<Stmt>(StmtKind::ExprCall, Loc);
    S->Value = Expr::call(std::move(Callee), std::move(Args), Loc);
    if (ExpectSemicolon)
      expect(TokenKind::Semicolon, "after call statement");
    return S;
  }

  // Assignment: parse the lvalue.
  ExprPtr Target;
  if (match(TokenKind::Star)) {
    Target = Expr::deref(parseUnary(), Loc);
  } else if (check(TokenKind::Identifier)) {
    std::string Name = consume().Text;
    if (match(TokenKind::LBracket)) {
      ExprPtr Index = parseExpr();
      expect(TokenKind::RBracket, "after array index");
      Target = Expr::arrayIndex(std::move(Name), std::move(Index), Loc);
    } else {
      Target = Expr::varRef(std::move(Name), Loc);
    }
  } else {
    Diags.error(Loc, std::string("expected an assignment or call, found ") +
                         tokenKindName(current().Kind));
    return nullptr;
  }

  if (!expect(TokenKind::Assign, "in assignment"))
    return nullptr;

  // The RHS is either a call (user proc / builtin with result) or an
  // ordinary expression; parseExpr handles both since Call is an Expr.
  ExprPtr Value = parseExpr();

  auto S = std::make_unique<Stmt>(StmtKind::Assign, Loc);
  S->Target = std::move(Target);
  S->Value = std::move(Value);
  if (ExpectSemicolon)
    expect(TokenKind::Semicolon, "after assignment");
  return S;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

ExprPtr Parser::parseExpr() { return parseOr(); }

ExprPtr Parser::parseOr() {
  ExprPtr Lhs = parseAnd();
  while (check(TokenKind::PipePipe)) {
    SourceLoc Loc = consume().Loc;
    Lhs = Expr::binary(BinaryOp::Or, std::move(Lhs), parseAnd(), Loc);
  }
  return Lhs;
}

ExprPtr Parser::parseAnd() {
  ExprPtr Lhs = parseEquality();
  while (check(TokenKind::AmpAmp)) {
    SourceLoc Loc = consume().Loc;
    Lhs = Expr::binary(BinaryOp::And, std::move(Lhs), parseEquality(), Loc);
  }
  return Lhs;
}

ExprPtr Parser::parseEquality() {
  ExprPtr Lhs = parseRelational();
  for (;;) {
    BinaryOp Op;
    if (check(TokenKind::EqEq))
      Op = BinaryOp::Eq;
    else if (check(TokenKind::BangEq))
      Op = BinaryOp::Ne;
    else
      return Lhs;
    SourceLoc Loc = consume().Loc;
    Lhs = Expr::binary(Op, std::move(Lhs), parseRelational(), Loc);
  }
}

ExprPtr Parser::parseRelational() {
  ExprPtr Lhs = parseAdditive();
  for (;;) {
    BinaryOp Op;
    if (check(TokenKind::Less))
      Op = BinaryOp::Lt;
    else if (check(TokenKind::LessEq))
      Op = BinaryOp::Le;
    else if (check(TokenKind::Greater))
      Op = BinaryOp::Gt;
    else if (check(TokenKind::GreaterEq))
      Op = BinaryOp::Ge;
    else
      return Lhs;
    SourceLoc Loc = consume().Loc;
    Lhs = Expr::binary(Op, std::move(Lhs), parseAdditive(), Loc);
  }
}

ExprPtr Parser::parseAdditive() {
  ExprPtr Lhs = parseMultiplicative();
  for (;;) {
    BinaryOp Op;
    if (check(TokenKind::Plus))
      Op = BinaryOp::Add;
    else if (check(TokenKind::Minus))
      Op = BinaryOp::Sub;
    else
      return Lhs;
    SourceLoc Loc = consume().Loc;
    Lhs = Expr::binary(Op, std::move(Lhs), parseMultiplicative(), Loc);
  }
}

ExprPtr Parser::parseMultiplicative() {
  ExprPtr Lhs = parseUnary();
  for (;;) {
    BinaryOp Op;
    if (check(TokenKind::Star))
      Op = BinaryOp::Mul;
    else if (check(TokenKind::Slash))
      Op = BinaryOp::Div;
    else if (check(TokenKind::Percent))
      Op = BinaryOp::Mod;
    else
      return Lhs;
    SourceLoc Loc = consume().Loc;
    Lhs = Expr::binary(Op, std::move(Lhs), parseUnary(), Loc);
  }
}

ExprPtr Parser::parseUnary() {
  SourceLoc Loc = current().Loc;
  if (match(TokenKind::Minus))
    return Expr::unary(UnaryOp::Neg, parseUnary(), Loc);
  if (match(TokenKind::Bang))
    return Expr::unary(UnaryOp::Not, parseUnary(), Loc);
  if (match(TokenKind::Star))
    return Expr::deref(parseUnary(), Loc);
  if (match(TokenKind::Amp)) {
    ExprPtr Place = parsePrimary();
    if (Place && Place->Kind != ExprKind::VarRef &&
        Place->Kind != ExprKind::ArrayIndex) {
      Diags.error(Loc, "'&' requires a variable or array element");
      return Expr::intLit(0, Loc);
    }
    if (!Place)
      return Expr::intLit(0, Loc);
    return Expr::addrOf(std::move(Place), Loc);
  }
  return parsePrimary();
}

ExprPtr Parser::parsePrimary() {
  SourceLoc Loc = current().Loc;
  if (check(TokenKind::IntLiteral))
    return Expr::intLit(consume().IntValue, Loc);
  if (match(TokenKind::KwUnknown))
    return Expr::unknown(Loc);
  if (match(TokenKind::LParen)) {
    ExprPtr Sub = parseExpr();
    expect(TokenKind::RParen, "to close parenthesized expression");
    return Sub;
  }
  if (check(TokenKind::Identifier)) {
    std::string Name = consume().Text;
    if (match(TokenKind::LParen)) {
      std::vector<ExprPtr> Args;
      if (!check(TokenKind::RParen)) {
        do {
          Args.push_back(parseExpr());
        } while (match(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "after call arguments");
      return Expr::call(std::move(Name), std::move(Args), Loc);
    }
    if (match(TokenKind::LBracket)) {
      ExprPtr Index = parseExpr();
      expect(TokenKind::RBracket, "after array index");
      return Expr::arrayIndex(std::move(Name), std::move(Index), Loc);
    }
    return Expr::varRef(std::move(Name), Loc);
  }
  Diags.error(Loc, std::string("expected an expression, found ") +
                       tokenKindName(current().Kind));
  consume();
  return Expr::intLit(0, Loc);
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

std::unique_ptr<Program> closer::parseMiniC(const std::string &Source,
                                            DiagnosticEngine &Diags) {
  // The parser pulls tokens as it goes, so lexical errors surface in the
  // middle of parsing. Hold the parser's diagnostics back; parseProgram()
  // returns only at Eof, so by then every lexical error is reported, and
  // one discards the parser's diagnostics, as if lexing ran first.
  Lexer Lex(Source, Diags);
  DiagnosticEngine ParseDiags;
  Parser P(Lex, ParseDiags);
  std::unique_ptr<Program> Prog = P.parseProgram();
  if (Diags.hasErrors())
    return nullptr;
  Diags.append(ParseDiags);
  if (Diags.hasErrors())
    return nullptr;
  return Prog;
}
