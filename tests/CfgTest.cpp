//===- CfgTest.cpp - CFG construction, verification, printing tests --------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgBuilder.h"

#include "cfg/CfgPrinter.h"
#include "cfg/CfgVerifier.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace closer;

namespace {

const ProcCfg &onlyProc(const Module &Mod) {
  EXPECT_EQ(Mod.Procs.size(), 1u);
  return Mod.Procs[0];
}

size_t countKind(const ProcCfg &Proc, CfgNodeKind Kind) {
  size_t N = 0;
  for (const CfgNode &Node : Proc.Nodes)
    N += Node.Kind == Kind;
  return N;
}

TEST(CfgTest, EmptyProcIsStartPlusReturn) {
  auto Mod = mustCompile("proc f() { }");
  const ProcCfg &P = onlyProc(*Mod);
  ASSERT_EQ(P.Nodes.size(), 2u);
  EXPECT_EQ(P.Nodes[0].Kind, CfgNodeKind::Start);
  EXPECT_EQ(P.Nodes[1].Kind, CfgNodeKind::Return);
  EXPECT_EQ(P.Nodes[0].Arcs[0].Target, 1u);
}

TEST(CfgTest, StraightLineChainsAlwaysArcs) {
  auto Mod = mustCompile(R"(
proc f() {
  var a = 1;
  var b;
  b = a + 1;
  a = b * 2;
}
)");
  const ProcCfg &P = onlyProc(*Mod);
  // Start, a=1, b=a+1, a=b*2, Return.
  ASSERT_EQ(P.Nodes.size(), 5u);
  for (size_t I = 0; I + 1 < P.Nodes.size(); ++I) {
    ASSERT_EQ(P.Nodes[I].Arcs.size(), 1u);
    EXPECT_EQ(P.Nodes[I].Arcs[0].Target, I + 1);
  }
  EXPECT_EQ(P.Locals.size(), 2u);
}

TEST(CfgTest, IfProducesBranchWithJoin) {
  auto Mod = mustCompile(R"(
proc f() {
  var x = 0;
  if (x < 1)
    x = 1;
  else
    x = 2;
  x = 3;
}
)");
  const ProcCfg &P = onlyProc(*Mod);
  EXPECT_EQ(countKind(P, CfgNodeKind::Branch), 1u);
  const CfgNode *Branch = nullptr;
  for (const CfgNode &N : P.Nodes)
    if (N.Kind == CfgNodeKind::Branch)
      Branch = &N;
  ASSERT_NE(Branch, nullptr);
  ASSERT_EQ(Branch->Arcs.size(), 2u);
  EXPECT_EQ(Branch->Arcs[0].Kind, ArcKind::IfTrue);
  EXPECT_EQ(Branch->Arcs[1].Kind, ArcKind::IfFalse);
  // Both arms converge on x = 3.
  NodeId ThenNext = P.node(Branch->Arcs[0].Target).Arcs[0].Target;
  NodeId ElseNext = P.node(Branch->Arcs[1].Target).Arcs[0].Target;
  EXPECT_EQ(ThenNext, ElseNext);
}

TEST(CfgTest, WhileHasBackEdge) {
  auto Mod = mustCompile(R"(
proc f() {
  var i = 0;
  while (i < 5)
    i = i + 1;
}
)");
  const ProcCfg &P = onlyProc(*Mod);
  const CfgNode *Branch = nullptr;
  NodeId BranchId = InvalidNode;
  for (size_t I = 0; I != P.Nodes.size(); ++I)
    if (P.Nodes[I].Kind == CfgNodeKind::Branch) {
      Branch = &P.Nodes[I];
      BranchId = static_cast<NodeId>(I);
    }
  ASSERT_NE(Branch, nullptr);
  // Body's single statement loops back to the condition.
  const CfgNode &Body = P.node(Branch->Arcs[0].Target);
  ASSERT_EQ(Body.Arcs.size(), 1u);
  EXPECT_EQ(Body.Arcs[0].Target, BranchId);
}

TEST(CfgTest, BreakAndContinueTargets) {
  auto Mod = mustCompile(R"(
chan c[1];

proc f() {
  var i;
  for (i = 0; i < 10; i = i + 1) {
    if (i == 2)
      continue;
    if (i == 5)
      break;
    send(c, i);
  }
  send(c, 99);
}
)");
  const ProcCfg &P = onlyProc(*Mod);
  DiagnosticEngine Diags;
  EXPECT_TRUE(verifyProc(*Mod, P, Diags)) << Diags.str();
  // There is exactly one loop-head branch plus two if branches.
  EXPECT_EQ(countKind(P, CfgNodeKind::Branch), 3u);
}

TEST(CfgTest, GotoForwardAndBackward) {
  auto Mod = mustCompile(R"(
chan c[1];

proc f() {
  var x = 0;
  goto skip;
  send(c, 1);
skip:
  x = x + 1;
  if (x < 3) goto back;
  return;
back:
  goto skip;
}
)");
  const ProcCfg &P = onlyProc(*Mod);
  DiagnosticEngine Diags;
  EXPECT_TRUE(verifyProc(*Mod, P, Diags)) << Diags.str();
  // send(c, 1) is unreachable and pruned.
  EXPECT_EQ(countKind(P, CfgNodeKind::Call), 0u);
}

TEST(CfgTest, ReturnValueLoweredThroughRetVal) {
  auto Mod = mustCompile("proc f(a) { return a + 1; }");
  const ProcCfg &P = onlyProc(*Mod);
  EXPECT_TRUE(P.isLocal(retValName()));
  bool SawRetValAssign = false;
  for (const CfgNode &N : P.Nodes)
    if (N.Kind == CfgNodeKind::Assign && N.Target->Kind == ExprKind::VarRef &&
        N.Target->Name == retValName())
      SawRetValAssign = true;
  EXPECT_TRUE(SawRetValAssign);
  for (const CfgNode &N : P.Nodes)
    if (N.Kind == CfgNodeKind::Return) {
      EXPECT_TRUE(!N.Value && !N.Target);
    }
}

TEST(CfgTest, SwitchArmsDoNotFallThrough) {
  auto Mod = mustCompile(R"(
chan c[4];

proc f(v) {
  switch (v) {
  case 0:
    send(c, 10);
  case 1:
    send(c, 11);
  }
  send(c, 99);
}
)");
  const ProcCfg &P = onlyProc(*Mod);
  const CfgNode *Switch = nullptr;
  for (const CfgNode &N : P.Nodes)
    if (N.Kind == CfgNodeKind::Switch)
      Switch = &N;
  ASSERT_NE(Switch, nullptr);
  ASSERT_EQ(Switch->Arcs.size(), 3u); // case 0, case 1, default.
  // Arm "case 0" leads to send(10) whose successor is send(99), not
  // send(11).
  const CfgNode &Arm0 = P.node(Switch->Arcs[0].Target);
  const CfgNode &Next = P.node(Arm0.Arcs[0].Target);
  ASSERT_EQ(Next.Kind, CfgNodeKind::Call);
  EXPECT_EQ(Next.Args[1]->IntValue, 99);
  // Default arc (no default arm) also goes to send(99).
  EXPECT_EQ(P.node(Switch->Arcs[2].Target).Args[1]->IntValue, 99);
}

TEST(CfgTest, DeadCodeAfterReturnIsPruned) {
  auto Mod = mustCompile(R"(
chan c[1];

proc f() {
  return;
  send(c, 1);
}
)");
  const ProcCfg &P = onlyProc(*Mod);
  EXPECT_EQ(countKind(P, CfgNodeKind::Call), 0u);
}

TEST(CfgTest, LabelOnlySelfLoopNormalizesToReturn) {
  auto Mod = mustCompile("proc f() { spin: goto spin; }");
  const ProcCfg &P = onlyProc(*Mod);
  EXPECT_EQ(countKind(P, CfgNodeKind::Return), 1u);
}

TEST(CfgTest, LoweringConsumesEveryProcedureBody) {
  // buildModule frees each procedure's body once its nodes exist, so
  // lowering holds at most one procedure twice. The declarations stay.
  const char *Src = R"(
chan c[2];

proc g(v) {
  return v + 1;
}

proc f(x) {
  var a = x;
  var i;
  for (i = 0; i < 2; i = i + 1) {
    if (a > 0)
      send(c, a);
    else
      a = g(a);
  }
  while (a < 3)
    a = a + 1;
  switch (a) {
  case 1:
    send(c, 1);
  default:
    VS_assert(a);
  }
}

process m = f(env);
)";
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseMiniC(Src, Diags);
  ASSERT_TRUE(Prog) << Diags.str();
  ASSERT_TRUE(checkProgram(*Prog, Diags)) << Diags.str();
  std::unique_ptr<Module> Mod = buildModule(*Prog, Diags);
  ASSERT_TRUE(Mod) << Diags.str();
  ASSERT_TRUE(verifyModule(*Mod, Diags)) << Diags.str();
  ASSERT_EQ(Prog->Procs.size(), 2u);
  for (const ProcDecl &P : Prog->Procs)
    EXPECT_EQ(P.Body, nullptr) << P.Name;
  EXPECT_EQ(Prog->Procs[1].Name, "f");
  ASSERT_EQ(Prog->Procs[1].Params.size(), 1u);
  EXPECT_EQ(Prog->Processes.size(), 1u);
  // The module owns its expressions: it outlives the AST intact.
  Prog.reset();
  EXPECT_EQ(printModule(*Mod), printModule(*mustCompile(Src)));
}

//===----------------------------------------------------------------------===//
// Printer / emitter
//===----------------------------------------------------------------------===//

TEST(CfgTest, ListingContainsNodesAndArcs) {
  auto Mod = mustCompile(R"(
chan c[1];

proc f(x) {
  if (x > 0)
    send(c, 1);
}
)");
  std::string Listing = printCfg(onlyProc(*Mod));
  EXPECT_NE(Listing.find("branch (x > 0)"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("send(c, 1)"), std::string::npos);
  EXPECT_NE(Listing.find("true ->"), std::string::npos);
  EXPECT_NE(Listing.find("false ->"), std::string::npos);
}

TEST(CfgTest, DotOutputIsWellFormed) {
  auto Mod = mustCompile("proc f() { var x = 1; }");
  std::string Dot = cfgToDot(onlyProc(*Mod));
  EXPECT_EQ(Dot.find("digraph"), 0u);
  EXPECT_NE(Dot.find("N0 ->"), std::string::npos);
  EXPECT_EQ(Dot.back(), '\n');
}

TEST(CfgTest, EmittedSourceRecompilesToIsomorphicCfg) {
  auto Mod = mustCompile(R"(
chan c[2];
sem s(1);

proc f(x) {
  var i;
  for (i = 0; i < x; i = i + 1) {
    sem_wait(s);
    switch (i % 3) {
    case 0:
      send(c, i);
    default:
      ;
    }
    sem_signal(s);
  }
}

process m = f(3);
)");
  std::string Emitted = emitModuleSource(*Mod);
  DiagnosticEngine Diags;
  auto Reparsed = compileMiniC(Emitted, Diags);
  ASSERT_TRUE(Reparsed) << Diags.str() << "\n" << Emitted;
  EXPECT_TRUE(verifyModule(*Reparsed, Diags)) << Diags.str();

  // Same number of visible operations and branch structure.
  const ProcCfg &A = *Mod->findProc("f");
  const ProcCfg &B = *Reparsed->findProc("f");
  EXPECT_EQ(countKind(A, CfgNodeKind::Call), countKind(B, CfgNodeKind::Call));
  EXPECT_EQ(countKind(A, CfgNodeKind::Switch),
            countKind(B, CfgNodeKind::Switch));
}

//===----------------------------------------------------------------------===//
// Verifier rejects malformed graphs
//===----------------------------------------------------------------------===//

TEST(CfgTest, VerifierCatchesBadArcShape) {
  auto Mod = mustCompile("proc f() { var x = 1; }");
  // Corrupt: give the assign node two arcs.
  ProcCfg &P = Mod->Procs[0];
  for (CfgNode &N : P.Nodes)
    if (N.Kind == CfgNodeKind::Assign)
      N.Arcs.push_back({ArcKind::Always, 0, 0});
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyProc(*Mod, P, Diags));
}

TEST(CfgTest, VerifierCatchesDanglingTarget) {
  auto Mod = mustCompile("proc f() { var x = 1; }");
  ProcCfg &P = Mod->Procs[0];
  P.Nodes[0].Arcs[0].Target = 99;
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyProc(*Mod, P, Diags));
}

TEST(CfgTest, VerifierCatchesUnknownVariable) {
  auto Mod = mustCompile("proc f() { var x = 1; }");
  ProcCfg &P = Mod->Procs[0];
  for (CfgNode &N : P.Nodes)
    if (N.Kind == CfgNodeKind::Assign)
      N.Value = Expr::varRef("ghost");
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyProc(*Mod, P, Diags));
}

TEST(CfgTest, VerifierCatchesIncompleteTossCoverage) {
  auto Mod = mustCompile("proc f() { var x = 1; }");
  ProcCfg &P = Mod->Procs[0];
  CfgNode Toss;
  Toss.Kind = CfgNodeKind::TossBranch;
  Toss.TossBound = 2;
  Toss.Arcs.push_back({ArcKind::TossEq, 0, 0});
  Toss.Arcs.push_back({ArcKind::TossEq, 1, 0});
  // Outcome 2 missing.
  P.Nodes.push_back(std::move(Toss));
  P.Nodes[0].Arcs[0].Target = static_cast<NodeId>(P.Nodes.size() - 1);
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyProc(*Mod, P, Diags));
}

} // namespace
