//===- ParserTest.cpp - MiniC parser tests -----------------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "cfg/CfgPrinter.h"
#include "lang/Sema.h"
#include "support/Random.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace closer;

namespace {

std::unique_ptr<Program> parseOk(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = parseMiniC(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

void expectParseError(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = parseMiniC(Source, Diags);
  EXPECT_TRUE(Prog == nullptr) << "expected a parse error for:\n" << Source;
}

TEST(ParserTest, TopLevelDeclarations) {
  auto Prog = parseOk(R"(
chan c[5];
sem s(2);
shared sv = 7;
var g = 3;
var arr[4];

proc f(a, b) { }

process p1 = f(1, env);
)");
  ASSERT_EQ(Prog->Comms.size(), 3u);
  EXPECT_EQ(Prog->Comms[0].Kind, CommKind::Channel);
  EXPECT_EQ(Prog->Comms[0].Param, 5);
  EXPECT_EQ(Prog->Comms[1].Kind, CommKind::Semaphore);
  EXPECT_EQ(Prog->Comms[1].Param, 2);
  EXPECT_EQ(Prog->Comms[2].Kind, CommKind::SharedVar);
  EXPECT_EQ(Prog->Comms[2].Param, 7);

  ASSERT_EQ(Prog->Globals.size(), 2u);
  EXPECT_EQ(Prog->Globals[0].Init, 3);
  EXPECT_EQ(Prog->Globals[1].ArraySize, 4);

  ASSERT_EQ(Prog->Procs.size(), 1u);
  ASSERT_EQ(Prog->Procs[0].Params.size(), 2u);
  EXPECT_EQ(Prog->Procs[0].Params[1].Name, "b");

  ASSERT_EQ(Prog->Processes.size(), 1u);
  ASSERT_EQ(Prog->Processes[0].Args.size(), 2u);
  EXPECT_FALSE(Prog->Processes[0].Args[0].IsEnv);
  EXPECT_EQ(Prog->Processes[0].Args[0].Value, 1);
  EXPECT_TRUE(Prog->Processes[0].Args[1].IsEnv);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto Prog = parseOk(R"(
proc f() {
  var x;
  x = 1 + 2 * 3;
  x = (1 + 2) * 3;
  x = 1 < 2 && 3 == 4 || 5 != 6;
  x = -x + !x;
}
)");
  const Stmt *Body = Prog->Procs[0].Body.get();
  // x = 1 + 2 * 3 parses as 1 + (2 * 3).
  const Stmt *S1 = Body->Body[1].get();
  ASSERT_EQ(S1->Value->Kind, ExprKind::Binary);
  EXPECT_EQ(S1->Value->BOp, BinaryOp::Add);
  EXPECT_EQ(S1->Value->Rhs->BOp, BinaryOp::Mul);
  // (1 + 2) * 3 parses as (1 + 2) * 3.
  const Stmt *S2 = Body->Body[2].get();
  EXPECT_EQ(S2->Value->BOp, BinaryOp::Mul);
  // && binds tighter than ||.
  const Stmt *S3 = Body->Body[3].get();
  EXPECT_EQ(S3->Value->BOp, BinaryOp::Or);
  EXPECT_EQ(S3->Value->Lhs->BOp, BinaryOp::And);
}

TEST(ParserTest, PointerAndArraySyntax) {
  auto Prog = parseOk(R"(
proc f() {
  var x;
  var a[3];
  var p;
  p = &x;
  *p = 5;
  p = &a[2];
  a[x + 1] = *p;
  x = a[0];
}
)");
  const Stmt *Body = Prog->Procs[0].Body.get();
  const Stmt *AddrAssign = Body->Body[3].get();
  EXPECT_EQ(AddrAssign->Value->Kind, ExprKind::AddrOf);
  const Stmt *DerefStore = Body->Body[4].get();
  EXPECT_EQ(DerefStore->Target->Kind, ExprKind::Deref);
  const Stmt *ArrStore = Body->Body[6].get();
  EXPECT_EQ(ArrStore->Target->Kind, ExprKind::ArrayIndex);
  EXPECT_EQ(ArrStore->Value->Kind, ExprKind::Deref);
}

TEST(ParserTest, ControlFlowStatements) {
  auto Prog = parseOk(R"(
proc f() {
  var i;
  var x = 0;
  if (x) x = 1; else x = 2;
  while (x < 10) x = x + 1;
  for (i = 0; i < 3; i = i + 1) { x = x + i; }
  switch (x) {
  case 0:
    x = 10;
  case 1:
    x = 11;
    break;
  default:
    x = 12;
  }
  top:
  x = x - 1;
  if (x > 0) goto top;
  return;
}
)");
  ASSERT_EQ(Prog->Procs.size(), 1u);
  const std::vector<StmtPtr> &Body = Prog->Procs[0].Body->Body;
  EXPECT_EQ(Body[2]->Kind, StmtKind::If);
  EXPECT_EQ(Body[3]->Kind, StmtKind::While);
  EXPECT_EQ(Body[4]->Kind, StmtKind::For);
  EXPECT_EQ(Body[5]->Kind, StmtKind::Switch);
  EXPECT_EQ(Body[5]->Cases.size(), 2u);
  EXPECT_TRUE(Body[5]->HasDefault);
  EXPECT_EQ(Body[6]->Kind, StmtKind::Label);
  EXPECT_EQ(Body[6]->Name, "top");
}

TEST(ParserTest, CallsInStatementAndRhsPosition) {
  auto Prog = parseOk(R"(
chan c[1];

proc g(a) { return a; }

proc f() {
  var x;
  g(3);
  x = g(4);
  send(c, x);
  x = recv(c);
}
)");
  const std::vector<StmtPtr> &Body = Prog->Procs[1].Body->Body;
  EXPECT_EQ(Body[1]->Kind, StmtKind::ExprCall);
  EXPECT_EQ(Body[2]->Kind, StmtKind::Assign);
  EXPECT_EQ(Body[2]->Value->Kind, ExprKind::Call);
  EXPECT_EQ(Body[4]->Value->Name, "recv");
}

TEST(ParserTest, NegativeConstantsInDeclarations) {
  auto Prog = parseOk(R"(
shared sv = -3;
proc f(a) { }
process p = f(-7);
)");
  EXPECT_EQ(Prog->Comms[0].Param, -3);
  EXPECT_EQ(Prog->Processes[0].Args[0].Value, -7);
}

TEST(ParserTest, ForWithVarDeclInitAndEmptyClauses) {
  auto Prog = parseOk(R"(
proc f() {
  var s = 0;
  for (var j = 0; j < 2; j = j + 1)
    s = s + j;
  for (;;)
    break;
}
)");
  const std::vector<StmtPtr> &Body = Prog->Procs[0].Body->Body;
  EXPECT_EQ(Body[1]->InitStmt->Kind, StmtKind::VarDecl);
  EXPECT_EQ(Body[2]->InitStmt, nullptr);
  EXPECT_EQ(Body[2]->Cond, nullptr);
  EXPECT_EQ(Body[2]->StepStmt, nullptr);
}

TEST(ParserTest, ErrorRecoveryReportsMultipleProblems) {
  DiagnosticEngine Diags;
  auto Prog = parseMiniC(R"(
proc f() {
  var x = ;
  x = 3;
  y 4;
}
)", Diags);
  EXPECT_TRUE(Prog == nullptr);
  EXPECT_GE(Diags.errorCount(), 2u);
}

TEST(ParserTest, SyntaxErrors) {
  expectParseError("proc f( { }");
  expectParseError("chan c;");
  expectParseError("process p = ;");
  expectParseError("proc f() { if x) {} }");
  expectParseError("proc f() { switch (x) { foo: } }");
}

TEST(ParserTest, FuzzedInputNeverCrashes) {
  // The frontend must reject garbage gracefully: shuffled fragments of
  // real MiniC syntax, truncated at random points. No assertion in the
  // lexer/parser may fire and no invalid Program may escape.
  const char *Fragments[] = {
      "proc",   "process", "chan",  "sem",    "shared", "var",   "if",
      "else",   "while",   "for",   "switch", "case",   "default",
      "return", "break",   "goto",  "env",    "unknown", "x",    "y",
      "f",      "42",      "'atom'", "(",     ")",      "{",     "}",
      "[",      "]",       ";",     ",",      ":",      "=",     "==",
      "&&",     "||",      "&",     "*",      "+",      "-",     "/",
      "%",      "<",       ">",     "!",      "send",   "recv",
      "VS_toss", "VS_assert", "env_input",
  };
  Rng R(20260704);
  for (int Trial = 0; Trial != 500; ++Trial) {
    std::string Source;
    int Tokens = static_cast<int>(R.range(1, 60));
    for (int T = 0; T != Tokens; ++T) {
      Source += Fragments[R.below(std::size(Fragments))];
      Source += R.chance(1, 4) ? "\n" : " ";
    }
    DiagnosticEngine Diags;
    auto Prog = parseMiniC(Source, Diags);
    if (Prog) {
      // Whatever parsed must also survive sema without crashing.
      checkProgram(*Prog, Diags);
    }
  }
  SUCCEED();
}

TEST(ParserTest, DeeplyNestedExpressionsParse) {
  std::string Expr = "1";
  for (int I = 0; I != 200; ++I)
    Expr = "(" + Expr + " + 1)";
  std::string Source = "proc f() { var x; x = " + Expr + "; }";
  DiagnosticEngine Diags;
  auto Prog = parseMiniC(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
}

// emitModuleSource() is the one source printer: printing a parsed program
// and reparsing the print must reproduce the print byte for byte.
TEST(ParserTest, PrettyPrintRoundTrip) {
  auto Prog = parseOk(statementMixSource());
  ASSERT_TRUE(Prog != nullptr);
  std::unique_ptr<Module> Mod = mustCompile(statementMixSource());
  ASSERT_TRUE(Mod != nullptr);
  std::string Printed = emitModuleSource(*Mod);
  auto Reparsed = parseOk(Printed);
  ASSERT_TRUE(Reparsed != nullptr) << Printed;
  std::unique_ptr<Module> Mod2 = mustCompile(Printed);
  ASSERT_TRUE(Mod2 != nullptr) << Printed;
  std::string Printed2 = emitModuleSource(*Mod2);
  EXPECT_EQ(Printed, Printed2) << Printed;
}

} // namespace
