//===- ClosingTransformTest.cpp - Tests for the Figure 1 algorithm ---------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "closing/ClosingTransform.h"

#include "cfg/CfgPrinter.h"
#include "closing/Pipeline.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace closer;

namespace {

/// Counts nodes of a given kind across a procedure.
size_t countKind(const ProcCfg &Proc, CfgNodeKind Kind) {
  size_t N = 0;
  for (const CfgNode &Node : Proc.Nodes)
    N += Node.Kind == Kind;
  return N;
}

/// True when some node references variable \p Name.
bool referencesVar(const Expr *E, const std::string &Name) {
  if (!E)
    return false;
  if ((E->Kind == ExprKind::VarRef || E->Kind == ExprKind::ArrayIndex) &&
      E->Name == Name)
    return true;
  if (referencesVar(E->Lhs.get(), Name) || referencesVar(E->Rhs.get(), Name))
    return true;
  for (const ExprPtr &Arg : E->Args)
    if (referencesVar(Arg.get(), Name))
      return true;
  return false;
}

bool procReferencesVar(const ProcCfg &Proc, const std::string &Name) {
  for (const CfgNode &Node : Proc.Nodes) {
    if (referencesVar(Node.Target.get(), Name) ||
        referencesVar(Node.Value.get(), Name))
      return true;
    for (const ExprPtr &Arg : Node.Args)
      if (referencesVar(Arg.get(), Name))
        return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Figure 2 (E1)
//===----------------------------------------------------------------------===//

TEST(ClosingTransformTest, Figure2Shape) {
  CompileResult R = compile(figure2Source());
  ASSERT_TRUE(R.ok()) << R.Diags.str();

  const ProcCfg *P = R.M->findProc("p");
  ASSERT_NE(P, nullptr);

  // Step 5: the environment-defined parameter x is removed.
  EXPECT_TRUE(P->Params.empty());
  EXPECT_EQ(R.Closing.ParamsRemoved, 1u);

  // The statements that depended on x are gone: y = x % 2 and the y == 0
  // test are eliminated; x is never referenced.
  EXPECT_FALSE(procReferencesVar(*P, "x"));
  EXPECT_FALSE(procReferencesVar(*P, "y"));

  // Exactly one VS_toss conditional replaces the eliminated test, choosing
  // between the two sends (the paper's G'_p).
  EXPECT_EQ(countKind(*P, CfgNodeKind::TossBranch), 1u);
  const CfgNode *Toss = nullptr;
  for (const CfgNode &Node : P->Nodes)
    if (Node.Kind == CfgNodeKind::TossBranch)
      Toss = &Node;
  ASSERT_NE(Toss, nullptr);
  EXPECT_EQ(Toss->TossBound, 1);
  ASSERT_EQ(Toss->Arcs.size(), 2u);
  // Both outcomes lead to send calls.
  for (const CfgArc &Arc : Toss->Arcs)
    EXPECT_EQ(P->node(Arc.Target).Kind, CfgNodeKind::Call);

  // The untainted loop counter survives: cnt = 0, cnt < 10, cnt = cnt + 1.
  EXPECT_TRUE(procReferencesVar(*P, "cnt"));
  EXPECT_EQ(countKind(*P, CfgNodeKind::Branch), 1u);

  // Both visible sends survive with their payloads intact (cnt untainted).
  size_t Sends = 0;
  for (const CfgNode &Node : P->Nodes)
    if (Node.Kind == CfgNodeKind::Call && Node.Builtin == BuiltinKind::Send) {
      ++Sends;
      ASSERT_EQ(Node.Args.size(), 2u);
      EXPECT_NE(Node.Args[1]->Kind, ExprKind::Unknown);
    }
  EXPECT_EQ(Sends, 2u);

  // The process instantiation no longer mentions env.
  ASSERT_EQ(R.M->Processes.size(), 1u);
  EXPECT_TRUE(R.M->Processes[0].Args.empty());
}

TEST(ClosingTransformTest, Figure2IsClosed) {
  CompileResult R = compile(figure2Source());
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EnvAnalysis Analysis(*R.M);
  EXPECT_TRUE(Analysis.moduleIsClosed());
}

//===----------------------------------------------------------------------===//
// Figure 3 (E2): q closes to the same program as p
//===----------------------------------------------------------------------===//

TEST(ClosingTransformTest, Figure3SameClosedProgramAsFigure2) {
  CompileResult Rp = compile(figure2Source());
  CompileResult Rq = compile(figure3Source());
  ASSERT_TRUE(Rp.ok()) << Rp.Diags.str();
  ASSERT_TRUE(Rq.ok()) << Rq.Diags.str();

  const ProcCfg *P = Rp.M->findProc("p");
  const ProcCfg *Q = Rq.M->findProc("q");
  ASSERT_NE(P, nullptr);
  ASSERT_NE(Q, nullptr);

  // "Note that G'_p and G'_q are equivalent; although p and q are
  // functionally distinct, the algorithm transforms each of them to the
  // same closed program." Compare the node listings modulo the procedure
  // name (ids are deterministic).
  std::string ListP = printCfg(*P);
  std::string ListQ = printCfg(*Q);
  ListP.erase(0, ListP.find('\n'));
  ListQ.erase(0, ListQ.find('\n'));
  EXPECT_EQ(ListP, ListQ) << "p':\n" << printCfg(*P) << "q':\n"
                          << printCfg(*Q);

  // x = x / 2 is eliminated from q as well.
  EXPECT_FALSE(procReferencesVar(*Q, "x"));
}

//===----------------------------------------------------------------------===//
// Marking (Step 3) unit checks
//===----------------------------------------------------------------------===//

TEST(ClosingTransformTest, MarkingRules) {
  auto Mod = mustCompile(R"(
chan c[2];

proc main(x) {
  var a = 1;
  var b;
  b = x + 1;
  send(c, a);
  env_output(a);
  return;
}

process m = main(env);
)");
  ASSERT_TRUE(Mod);
  EnvAnalysis Analysis(*Mod);

  const ProcCfg *P = Mod->findProc("main");
  ASSERT_NE(P, nullptr);
  size_t ProcIdx = static_cast<size_t>(Mod->procIndex("main"));

  for (size_t I = 0, E = P->Nodes.size(); I != E; ++I) {
    const CfgNode &Node = P->Nodes[I];
    bool Marked = isMarkedNode(*Mod, Analysis, ProcIdx, static_cast<NodeId>(I));
    switch (Node.Kind) {
    case CfgNodeKind::Start:
    case CfgNodeKind::Return:
      EXPECT_TRUE(Marked);
      break;
    case CfgNodeKind::Call:
      if (Node.Builtin == BuiltinKind::EnvOutput)
        EXPECT_FALSE(Marked) << "env_output is the interface";
      else
        EXPECT_TRUE(Marked) << "visible ops are preserved";
      break;
    case CfgNodeKind::Assign:
      // a = 1 is untainted and kept; b = x + 1 uses the env param.
      if (referencesVar(Node.Value.get(), "x"))
        EXPECT_FALSE(Marked);
      else
        EXPECT_TRUE(Marked);
      break;
    default:
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Idempotence and statistics
//===----------------------------------------------------------------------===//

TEST(ClosingTransformTest, ClosingIsIdempotent) {
  CompileResult R = compile(figure3Source());
  ASSERT_TRUE(R.ok()) << R.Diags.str();

  ClosingStats Stats2;
  Module Again = closeModule(*R.M, {}, &Stats2);
  EXPECT_EQ(Stats2.ParamsRemoved, 0u);
  EXPECT_EQ(Stats2.EnvCallsRemoved, 0u);
  EXPECT_EQ(printModule(Again), printModule(*R.M));
}

TEST(ClosingTransformTest, StatsAccounting) {
  CompileResult R = compile(figure2Source());
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_GT(R.Closing.NodesBefore, R.Closing.NodesAfter);
  EXPECT_EQ(R.Closing.TossNodesInserted, 1u);
  EXPECT_GE(R.Closing.NodesEliminated, 2u); // y = x % 2 and the y test.
}

//===----------------------------------------------------------------------===//
// Whole-program aspects: call chains, channels, returns
//===----------------------------------------------------------------------===//

TEST(ClosingTransformTest, TaintThroughCallChain) {
  auto Mod = mustCompile(R"(
chan c[2];

proc leaf(v) {
  if (v > 0)
    send(c, 1);
  else
    send(c, 2);
}

proc mid(w) {
  leaf(w + 1);
}

proc main(x) {
  mid(x);
}

process m = main(env);
)");
  ASSERT_TRUE(Mod);
  ClosingStats Stats;
  Module Closed = closeModule(*Mod, {}, &Stats);

  // All three parameters ride the same env value and are removed.
  EXPECT_TRUE(Closed.findProc("leaf")->Params.empty());
  EXPECT_TRUE(Closed.findProc("mid")->Params.empty());
  EXPECT_TRUE(Closed.findProc("main")->Params.empty());
  EXPECT_EQ(Stats.ParamsRemoved, 3u);

  // leaf's conditional became a toss over the two sends.
  const ProcCfg *Leaf = Closed.findProc("leaf");
  EXPECT_EQ(countKind(*Leaf, CfgNodeKind::TossBranch), 1u);
  EXPECT_EQ(countKind(*Leaf, CfgNodeKind::Branch), 0u);
}

TEST(ClosingTransformTest, TaintThroughChannelPayload) {
  auto Mod = mustCompile(R"(
chan data[2];
chan sink[2];

proc producer() {
  var v;
  v = env_input();
  send(data, v);
}

proc consumer() {
  var got;
  got = recv(data);
  if (got == 7)
    send(sink, 1);
  else
    send(sink, 0);
}

process a = producer();
process b = consumer();
)");
  ASSERT_TRUE(Mod);
  EnvAnalysis Analysis(*Mod);
  // The channel carries environment data.
  EXPECT_TRUE(Analysis.taint().TaintedChannels.count("data"));

  ClosingStats Stats;
  Module Closed = closeModule(*Mod, Analysis, {}, &Stats);

  // The producer's send now carries the unknown placeholder.
  const ProcCfg *Prod = Closed.findProc("producer");
  bool SawUnknownPayload = false;
  for (const CfgNode &Node : Prod->Nodes)
    if (Node.Kind == CfgNodeKind::Call && Node.Builtin == BuiltinKind::Send)
      SawUnknownPayload |= Node.Args[1]->Kind == ExprKind::Unknown;
  EXPECT_TRUE(SawUnknownPayload);
  EXPECT_GE(Stats.PayloadsSanitized, 1u);

  // The consumer's branch on the received value became a toss.
  const ProcCfg *Cons = Closed.findProc("consumer");
  EXPECT_EQ(countKind(*Cons, CfgNodeKind::TossBranch), 1u);
  EXPECT_EQ(countKind(*Cons, CfgNodeKind::Branch), 0u);

  // Result is closed.
  EnvAnalysis After(Closed);
  EXPECT_TRUE(After.moduleIsClosed());
}

TEST(ClosingTransformTest, TaintedReturnValue) {
  auto Mod = mustCompile(R"(
chan c[2];

proc getenv() {
  var v;
  v = env_input();
  return v;
}

proc main() {
  var r;
  r = getenv();
  if (r > 0)
    send(c, 1);
  else
    send(c, 0);
}

process m = main();
)");
  ASSERT_TRUE(Mod);
  EnvAnalysis Analysis(*Mod);
  int Idx = Mod->procIndex("getenv");
  ASSERT_GE(Idx, 0);
  EXPECT_TRUE(Analysis.taint().Procs[Idx].TaintedReturn);

  Module Closed = closeModule(*Mod, Analysis);
  const ProcCfg *Main = Closed.findProc("main");
  EXPECT_EQ(countKind(*Main, CfgNodeKind::TossBranch), 1u);
}

TEST(ClosingTransformTest, UntaintedProgramIsUnchangedObservably) {
  auto Src = R"(
chan c[2];

proc main() {
  var i;
  for (i = 0; i < 3; i = i + 1)
    send(c, i);
}

process m = main();
)";
  CompileResult R = compile(Src);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_EQ(R.Closing.ParamsRemoved, 0u);
  EXPECT_EQ(R.Closing.TossNodesInserted, 0u);
  EXPECT_EQ(R.Closing.NodesEliminated, 0u);
  DiagnosticEngine Diags;
  std::unique_ptr<Module> Open = compileAndVerify(Src, Diags);
  ASSERT_TRUE(Open) << Diags.str();
  EXPECT_EQ(printModule(*R.M), printModule(*Open));
}

TEST(ClosingTransformTest, AssertionPayloadNotPreservedWhenTainted) {
  auto Mod = mustCompile(R"(
proc main() {
  var v;
  var ok = 1;
  v = env_input();
  VS_assert(v);
  VS_assert(ok);
}

process m = main();
)");
  ASSERT_TRUE(Mod);
  Module Closed = closeModule(*Mod);
  const ProcCfg *Main = Closed.findProc("main");
  size_t UnknownAsserts = 0, RealAsserts = 0;
  for (const CfgNode &Node : Main->Nodes) {
    if (Node.Kind != CfgNodeKind::Call ||
        Node.Builtin != BuiltinKind::VsAssert)
      continue;
    if (Node.Args[0]->Kind == ExprKind::Unknown)
      ++UnknownAsserts;
    else
      ++RealAsserts;
  }
  EXPECT_EQ(UnknownAsserts, 1u); // VS_assert(v) is not preserved.
  EXPECT_EQ(RealAsserts, 1u);    // VS_assert(ok) is preserved.
}

TEST(ClosingTransformTest, EveryTaintedPayloadIsSanitized) {
  // Both asserts read the environment through x. The taint memo is keyed
  // by expression address: when sanitizing asked about the closed node's
  // clone of an argument, the first payload's clone was memoized, replaced
  // by `unknown` and freed, and the second payload's clone, allocated at
  // the freed address, read the stale entry and kept `z > 1`.
  const char *Src = R"(
proc p(x) {
  var y;
  var z;
  y = x + 1;
  z = x + 2;
  VS_assert(y > 0);
  VS_assert(z > 1);
}

process a = p(env);
)";
  auto Mod = mustCompile(Src);
  ASSERT_TRUE(Mod);
  ClosingStats Stats;
  Module Closed = closeModule(*Mod, {}, &Stats);
  CompileResult R = compile(Src);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  for (const Module *M : {&Closed, R.M.get()}) {
    size_t Asserts = 0;
    for (const CfgNode &Node : M->Procs[0].Nodes) {
      if (Node.Kind != CfgNodeKind::Call ||
          Node.Builtin != BuiltinKind::VsAssert)
        continue;
      ++Asserts;
      EXPECT_EQ(Node.Args[0]->Kind, ExprKind::Unknown)
          << "node at line " << Node.Loc.Line;
    }
    EXPECT_EQ(Asserts, 2u);
  }
  EXPECT_EQ(Stats.PayloadsSanitized, 2u);
  EXPECT_EQ(R.Closing.PayloadsSanitized, 2u);
}

//===----------------------------------------------------------------------===//
// Divergence elimination (|succ(a)| == 0)
//===----------------------------------------------------------------------===//

TEST(ClosingTransformTest, UnmarkedCycleDropsArc) {
  // The loop body is entirely environment-dependent and never reaches a
  // marked node; the true-arc of the (tainted) loop head disappears with
  // the whole loop, and control reaching the eliminated region halts.
  auto Mod = mustCompile(R"(
chan c[2];

proc main(x) {
  send(c, 1);
  while (x > 0)
    x = x + 1;
  send(c, 2);
}

process m = main(env);
)");
  ASSERT_TRUE(Mod);
  ClosingStats Stats;
  Module Closed = closeModule(*Mod, {}, &Stats);
  const ProcCfg *Main = Closed.findProc("main");

  // The while head (tainted branch) is gone.
  EXPECT_EQ(countKind(*Main, CfgNodeKind::Branch), 0u);
  // Both sends survive; after the first send control may reach the second
  // send (skipping the loop) — the diverging path is dropped, so no toss is
  // needed (succ(a) = {send#2}).
  size_t Sends = 0;
  for (const CfgNode &Node : Main->Nodes)
    Sends += Node.Kind == CfgNodeKind::Call &&
             Node.Builtin == BuiltinKind::Send;
  EXPECT_EQ(Sends, 2u);
}

} // namespace
