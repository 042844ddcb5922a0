//===- Lexer.cpp - MiniC lexer --------------------------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include <cassert>
#include <cctype>
#include <unordered_map>
#include <utility>

using namespace closer;

//===----------------------------------------------------------------------===//
// AtomTable
//===----------------------------------------------------------------------===//

int64_t AtomTable::intern(const std::string &Spelling) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(Spelling);
  if (It == Index.end()) {
    // Takes the Symbol table's lock inside Mutex; that table takes no
    // other lock, so the order is fixed.
    Spellings.emplace_back(Spelling);
    It = Index.emplace(Spellings.back().str(), Spellings.size() - 1).first;
  }
  return FirstAtomId + static_cast<int64_t>(It->second);
}

std::string AtomTable::spelling(int64_t Id) const {
  if (Id < FirstAtomId)
    return "";
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t Index = static_cast<size_t>(Id - FirstAtomId);
  return Index < Spellings.size() ? Spellings[Index].str() : std::string();
}

bool AtomTable::isAtom(int64_t Id) const {
  if (Id < FirstAtomId)
    return false;
  std::lock_guard<std::mutex> Lock(Mutex);
  return Id - FirstAtomId < static_cast<int64_t>(Spellings.size());
}

AtomTable &AtomTable::global() {
  static AtomTable Table;
  return Table;
}

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

const char *closer::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Invalid:
    return "invalid token";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::StringLiteral:
    return "string literal";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::KwVar:
    return "'var'";
  case TokenKind::KwProc:
    return "'proc'";
  case TokenKind::KwProcess:
    return "'process'";
  case TokenKind::KwChan:
    return "'chan'";
  case TokenKind::KwSem:
    return "'sem'";
  case TokenKind::KwShared:
    return "'shared'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwFor:
    return "'for'";
  case TokenKind::KwSwitch:
    return "'switch'";
  case TokenKind::KwCase:
    return "'case'";
  case TokenKind::KwDefault:
    return "'default'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwBreak:
    return "'break'";
  case TokenKind::KwContinue:
    return "'continue'";
  case TokenKind::KwGoto:
    return "'goto'";
  case TokenKind::KwEnv:
    return "'env'";
  case TokenKind::KwUnknown:
    return "'unknown'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Semicolon:
    return "';'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Percent:
    return "'%'";
  case TokenKind::Amp:
    return "'&'";
  case TokenKind::Bang:
    return "'!'";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::BangEq:
    return "'!='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::LessEq:
    return "'<='";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::GreaterEq:
    return "'>='";
  case TokenKind::AmpAmp:
    return "'&&'";
  case TokenKind::PipePipe:
    return "'||'";
  }
  return "unknown";
}

static TokenKind keywordKind(const std::string &Text) {
  static const std::unordered_map<std::string, TokenKind> Keywords = {
      {"var", TokenKind::KwVar},           {"proc", TokenKind::KwProc},
      {"process", TokenKind::KwProcess},   {"chan", TokenKind::KwChan},
      {"sem", TokenKind::KwSem},           {"shared", TokenKind::KwShared},
      {"if", TokenKind::KwIf},             {"else", TokenKind::KwElse},
      {"while", TokenKind::KwWhile},       {"for", TokenKind::KwFor},
      {"switch", TokenKind::KwSwitch},     {"case", TokenKind::KwCase},
      {"default", TokenKind::KwDefault},   {"return", TokenKind::KwReturn},
      {"break", TokenKind::KwBreak},       {"continue", TokenKind::KwContinue},
      {"goto", TokenKind::KwGoto},         {"env", TokenKind::KwEnv},
      {"unknown", TokenKind::KwUnknown},
  };
  auto It = Keywords.find(Text);
  return It == Keywords.end() ? TokenKind::Identifier : It->second;
}

Lexer::Lexer(std::string_view Source, DiagnosticEngine &Diags,
             AtomTable &Atoms)
    : Buffer(Source), Diags(Diags), Atoms(Atoms) {}

char Lexer::peek(unsigned Ahead) const {
  size_t Index = Pos + Ahead;
  return Index < Buffer.size() ? Buffer[Index] : '\0';
}

char Lexer::advance() {
  assert(!atEnd() && "advancing past end of buffer");
  char C = Buffer[Pos++];
  if (C == '\n') {
    ++Line;
    Column = 1;
  } else {
    ++Column;
  }
  return C;
}

void Lexer::skipWhitespaceAndComments() {
  while (!atEnd()) {
    char C = peek();
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      SourceLoc Start = currentLoc();
      advance();
      advance();
      bool Closed = false;
      while (!atEnd()) {
        if (peek() == '*' && peek(1) == '/') {
          advance();
          advance();
          Closed = true;
          break;
        }
        advance();
      }
      if (!Closed)
        Diags.error(Start, "unterminated block comment");
      continue;
    }
    break;
  }
}

Token Lexer::makeToken(TokenKind Kind, SourceLoc Loc, std::string Text) {
  Token Tok;
  Tok.Kind = Kind;
  Tok.Loc = Loc;
  Tok.Text = std::move(Text);
  return Tok;
}

Token Lexer::lexToken() {
  skipWhitespaceAndComments();
  SourceLoc Loc = currentLoc();
  if (atEnd())
    return makeToken(TokenKind::Eof, Loc);

  char C = advance();

  if (std::isdigit(static_cast<unsigned char>(C))) {
    int64_t Value = C - '0';
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
      Value = Value * 10 + (advance() - '0');
    Token Tok = makeToken(TokenKind::IntLiteral, Loc);
    Tok.IntValue = Value;
    return Tok;
  }

  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
    std::string Text(1, C);
    while (!atEnd() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                        peek() == '_'))
      Text += advance();
    TokenKind Kind = keywordKind(Text);
    Token Tok = makeToken(Kind, Loc, std::move(Text));
    return Tok;
  }

  // Atoms: 'even', or "even". Both lex to an interned integer literal so the
  // rest of the pipeline sees plain integers (rendered back in traces).
  if (C == '\'' || C == '"') {
    char Quote = C;
    std::string Text;
    while (!atEnd() && peek() != Quote && peek() != '\n')
      Text += advance();
    if (atEnd() || peek() != Quote) {
      Diags.error(Loc, "unterminated atom literal");
      return makeToken(TokenKind::Invalid, Loc);
    }
    advance(); // Closing quote.
    Token Tok = makeToken(TokenKind::IntLiteral, Loc, Text);
    Tok.IntValue = Atoms.intern(Text);
    return Tok;
  }

  switch (C) {
  case '(':
    return makeToken(TokenKind::LParen, Loc);
  case ')':
    return makeToken(TokenKind::RParen, Loc);
  case '{':
    return makeToken(TokenKind::LBrace, Loc);
  case '}':
    return makeToken(TokenKind::RBrace, Loc);
  case '[':
    return makeToken(TokenKind::LBracket, Loc);
  case ']':
    return makeToken(TokenKind::RBracket, Loc);
  case ',':
    return makeToken(TokenKind::Comma, Loc);
  case ';':
    return makeToken(TokenKind::Semicolon, Loc);
  case ':':
    return makeToken(TokenKind::Colon, Loc);
  case '+':
    return makeToken(TokenKind::Plus, Loc);
  case '-':
    return makeToken(TokenKind::Minus, Loc);
  case '*':
    return makeToken(TokenKind::Star, Loc);
  case '/':
    return makeToken(TokenKind::Slash, Loc);
  case '%':
    return makeToken(TokenKind::Percent, Loc);
  case '=':
    if (peek() == '=') {
      advance();
      return makeToken(TokenKind::EqEq, Loc);
    }
    return makeToken(TokenKind::Assign, Loc);
  case '!':
    if (peek() == '=') {
      advance();
      return makeToken(TokenKind::BangEq, Loc);
    }
    return makeToken(TokenKind::Bang, Loc);
  case '<':
    if (peek() == '=') {
      advance();
      return makeToken(TokenKind::LessEq, Loc);
    }
    return makeToken(TokenKind::Less, Loc);
  case '>':
    if (peek() == '=') {
      advance();
      return makeToken(TokenKind::GreaterEq, Loc);
    }
    return makeToken(TokenKind::Greater, Loc);
  case '&':
    if (peek() == '&') {
      advance();
      return makeToken(TokenKind::AmpAmp, Loc);
    }
    return makeToken(TokenKind::Amp, Loc);
  case '|':
    if (peek() == '|') {
      advance();
      return makeToken(TokenKind::PipePipe, Loc);
    }
    Diags.error(Loc, "expected '||', found single '|'");
    return makeToken(TokenKind::Invalid, Loc);
  default:
    Diags.error(Loc, std::string("unexpected character '") + C + "'");
    return makeToken(TokenKind::Invalid, Loc);
  }
}

Token Lexer::next() {
  for (;;) {
    Token Tok = lexToken();
    if (!Tok.is(TokenKind::Invalid))
      return Tok;
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Tokens;
  do
    Tokens.push_back(next());
  while (!Tokens.back().is(TokenKind::Eof));
  return Tokens;
}
