//===- LexerTest.cpp - MiniC lexer tests ------------------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>

using namespace closer;

namespace {

std::vector<Token> lexOk(std::string_view Source) {
  DiagnosticEngine Diags;
  Lexer Lex(Source, Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return Tokens;
}

std::vector<TokenKind> kindsOf(const std::vector<Token> &Tokens) {
  std::vector<TokenKind> Kinds;
  for (const Token &T : Tokens)
    Kinds.push_back(T.Kind);
  return Kinds;
}

TEST(LexerTest, EmptyInputYieldsEof) {
  auto Tokens = lexOk("");
  ASSERT_EQ(Tokens.size(), 1u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Eof);
}

TEST(LexerTest, KeywordsAndIdentifiers) {
  auto Tokens = lexOk("var proc process chan sem shared if else while for "
                      "switch case default return break continue goto env "
                      "unknown myvar _x x9");
  std::vector<TokenKind> Expected = {
      TokenKind::KwVar,      TokenKind::KwProc,    TokenKind::KwProcess,
      TokenKind::KwChan,     TokenKind::KwSem,     TokenKind::KwShared,
      TokenKind::KwIf,       TokenKind::KwElse,    TokenKind::KwWhile,
      TokenKind::KwFor,      TokenKind::KwSwitch,  TokenKind::KwCase,
      TokenKind::KwDefault,  TokenKind::KwReturn,  TokenKind::KwBreak,
      TokenKind::KwContinue, TokenKind::KwGoto,    TokenKind::KwEnv,
      TokenKind::KwUnknown,  TokenKind::Identifier, TokenKind::Identifier,
      TokenKind::Identifier, TokenKind::Eof};
  EXPECT_EQ(kindsOf(Tokens), Expected);
  EXPECT_EQ(Tokens[19].Text, "myvar");
}

TEST(LexerTest, OperatorsIncludingTwoCharForms) {
  auto Tokens = lexOk("= == ! != < <= > >= & && || + - * / %");
  std::vector<TokenKind> Expected = {
      TokenKind::Assign,  TokenKind::EqEq,      TokenKind::Bang,
      TokenKind::BangEq,  TokenKind::Less,      TokenKind::LessEq,
      TokenKind::Greater, TokenKind::GreaterEq, TokenKind::Amp,
      TokenKind::AmpAmp,  TokenKind::PipePipe,  TokenKind::Plus,
      TokenKind::Minus,   TokenKind::Star,      TokenKind::Slash,
      TokenKind::Percent, TokenKind::Eof};
  EXPECT_EQ(kindsOf(Tokens), Expected);
}

TEST(LexerTest, IntegerLiterals) {
  auto Tokens = lexOk("0 42 123456789");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[0].IntValue, 0);
  EXPECT_EQ(Tokens[1].IntValue, 42);
  EXPECT_EQ(Tokens[2].IntValue, 123456789);
}

TEST(LexerTest, AtomsInternConsistently) {
  auto Tokens = lexOk("'even' 'odd' 'even' \"even\"");
  ASSERT_EQ(Tokens.size(), 5u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Tokens[0].IntValue, Tokens[2].IntValue);
  EXPECT_EQ(Tokens[0].IntValue, Tokens[3].IntValue); // Quote style agnostic.
  EXPECT_NE(Tokens[0].IntValue, Tokens[1].IntValue);
  EXPECT_GE(Tokens[0].IntValue, AtomTable::FirstAtomId);
  EXPECT_EQ(AtomTable::global().spelling(Tokens[0].IntValue), "even");
}

TEST(LexerTest, AtomsInternedOnTwoThreadsRoundTrip) {
  // A batch close lexes several modules at once against the global table;
  // TsanTest runs this case to catch unsynchronized interning.
  auto LexAtoms = [](const std::string &Prefix, std::vector<Token> &Out) {
    std::string Source;
    for (int I = 0; I != 200; ++I)
      Source += "'" + Prefix + std::to_string(I) + "' ";
    DiagnosticEngine Diags;
    Lexer Lex(Source, Diags);
    Out = Lex.lexAll();
  };
  std::vector<Token> Left, Right;
  std::thread A(LexAtoms, "thread_left_", std::ref(Left));
  std::thread B(LexAtoms, "thread_right_", std::ref(Right));
  A.join();
  B.join();
  for (const std::vector<Token> *Tokens : {&Left, &Right}) {
    ASSERT_EQ(Tokens->size(), 201u);
    for (size_t I = 0; I + 1 != Tokens->size(); ++I) {
      const Token &T = (*Tokens)[I];
      EXPECT_TRUE(AtomTable::global().isAtom(T.IntValue));
      EXPECT_EQ(AtomTable::global().spelling(T.IntValue), T.Text);
    }
  }
}

TEST(LexerTest, LexingAViewStopsAtItsEnd) {
  // The lexer views its buffer without copying it, so a slice of a larger
  // buffer ends where the slice does, not at a NUL: here inside an
  // identifier, a number and a block comment whose close lies past it.
  const std::string Buffer = "alpha beta = 12345; /* note */ gamma";
  std::string_view Text(Buffer);

  auto Tokens = lexOk(Text.substr(0, 8)); // "alpha be"
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Text, "alpha");
  EXPECT_EQ(Tokens[1].Text, "be");
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Eof);

  Tokens = lexOk(Text.substr(6, 9)); // "beta = 12"
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Tokens[2].IntValue, 12);

  DiagnosticEngine Diags;
  Lexer Lex(Text.substr(0, 25), Diags); // Ends inside "/* note".
  std::vector<Token> Cut = Lex.lexAll();
  EXPECT_TRUE(Cut.back().is(TokenKind::Eof));
  EXPECT_NE(Diags.str().find("unterminated block comment"), std::string::npos)
      << Diags.str();
}

TEST(LexerTest, CommentsAreSkipped) {
  auto Tokens = lexOk("a // line comment\nb /* block\ncomment */ c");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[0].Text, "a");
  EXPECT_EQ(Tokens[1].Text, "b");
  EXPECT_EQ(Tokens[2].Text, "c");
}

TEST(LexerTest, SourceLocationsTrackLinesAndColumns) {
  auto Tokens = lexOk("a\n  b\n\n    c");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[0].Loc, SourceLoc(1, 1));
  EXPECT_EQ(Tokens[1].Loc, SourceLoc(2, 3));
  EXPECT_EQ(Tokens[2].Loc, SourceLoc(4, 5));
}

TEST(LexerTest, UnterminatedBlockCommentIsAnError) {
  DiagnosticEngine Diags;
  Lexer Lex("a /* never closed", Diags);
  Lex.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, UnterminatedAtomIsAnError) {
  DiagnosticEngine Diags;
  Lexer Lex("x = 'oops\n", Diags);
  Lex.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, StrayCharacterIsAnErrorButLexingContinues) {
  DiagnosticEngine Diags;
  Lexer Lex("a @ b", Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
  // a and b still lexed.
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Text, "a");
  EXPECT_EQ(Tokens[1].Text, "b");
}

TEST(LexerTest, SinglePipeIsAnError) {
  DiagnosticEngine Diags;
  Lexer Lex("a | b", Diags);
  Lex.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

} // namespace
