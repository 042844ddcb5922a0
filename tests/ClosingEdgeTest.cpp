//===- ClosingEdgeTest.cpp - Closing-transformation edge cases ---------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "closing/ClosingTransform.h"

#include "cfg/CfgPrinter.h"
#include "closing/Pipeline.h"
#include "explorer/Search.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace closer;

namespace {

size_t countKind(const ProcCfg &Proc, CfgNodeKind Kind) {
  size_t N = 0;
  for (const CfgNode &Node : Proc.Nodes)
    N += Node.Kind == Kind;
  return N;
}

TEST(ClosingEdgeTest, TaintedSwitchBecomesTossOverArms) {
  CompileResult R = compile(R"(
chan c[4];

proc main() {
  var ev;
  ev = env_input();
  switch (ev % 3) {
  case 0:
    send(c, 'a');
  case 1:
    send(c, 'b');
  default:
    send(c, 'z');
  }
}

process m = main();
)");
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  const ProcCfg &P = R.M->Procs[0];
  EXPECT_EQ(countKind(P, CfgNodeKind::Switch), 0u);
  ASSERT_EQ(countKind(P, CfgNodeKind::TossBranch), 1u);
  for (const CfgNode &Node : P.Nodes)
    if (Node.Kind == CfgNodeKind::TossBranch) {
      EXPECT_EQ(Node.TossBound, 2) << "three arms -> VS_toss(2)";
    }
}

TEST(ClosingEdgeTest, NestedTaintedBranchesCollapseToOneWideToss) {
  // Two nested eliminated tests with four distinct marked leaves: the
  // single control arc entering the region needs a 4-way toss.
  CompileResult R = compile(R"(
chan c[8];

proc main() {
  var a;
  var b;
  a = env_input();
  b = env_input();
  if (a > 0) {
    if (b > 0)
      send(c, 1);
    else
      send(c, 2);
  } else {
    if (b > 0)
      send(c, 3);
    else
      send(c, 4);
  }
}

process m = main();
)");
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  const ProcCfg &P = R.M->Procs[0];
  ASSERT_EQ(countKind(P, CfgNodeKind::TossBranch), 1u);
  for (const CfgNode &Node : P.Nodes)
    if (Node.Kind == CfgNodeKind::TossBranch) {
      EXPECT_EQ(Node.TossBound, 3);
    }
}

TEST(ClosingEdgeTest, TaintedArrayIndexEliminatesAccess) {
  CompileResult R = compile(R"(
chan c[4];

proc main() {
  var a[4];
  var i;
  var v;
  i = env_input();
  a[0] = 5;
  v = a[i % 4];
  if (v > 0)
    send(c, 1);
  else
    send(c, 0);
}

process m = main();
)");
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  const ProcCfg &P = R.M->Procs[0];
  // The read through the tainted index and the branch on it are gone.
  EXPECT_EQ(countKind(P, CfgNodeKind::Branch), 0u);
  EXPECT_EQ(countKind(P, CfgNodeKind::TossBranch), 1u);
  // The untainted write a[0] = 5 is preserved.
  bool KeptWrite = false;
  for (const CfgNode &Node : P.Nodes)
    if (Node.Kind == CfgNodeKind::Assign &&
        Node.Target->Kind == ExprKind::ArrayIndex)
      KeptWrite = true;
  EXPECT_TRUE(KeptWrite);
}

TEST(ClosingEdgeTest, TaintedTossBoundIsEliminated) {
  CompileResult R = compile(R"(
chan c[4];

proc main() {
  var n;
  var v;
  n = env_input();
  v = VS_toss(n);
  if (v > 0)
    send(c, 1);
  else
    send(c, 0);
}

process m = main();
)");
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  const ProcCfg &P = R.M->Procs[0];
  // The env-bounded toss call is gone; the downstream branch became a
  // two-way toss node.
  for (const CfgNode &Node : P.Nodes)
    EXPECT_FALSE(Node.Kind == CfgNodeKind::Call &&
                 Node.Builtin == BuiltinKind::VsToss);
  EXPECT_EQ(countKind(P, CfgNodeKind::TossBranch), 1u);
}

TEST(ClosingEdgeTest, UncalledDeadProcedureClosesWithoutProcesses) {
  CompileResult R = compile(R"(
chan c[2];

proc unused(x) {
  if (x > 0)
    send(c, 1);
  else
    send(c, 2);
}

proc main() {
  send(c, 0);
}

process m = main();
)");
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  // `unused` has no environment-bound parameters (never instantiated or
  // called), so it survives untouched.
  const ProcCfg *Unused = R.M->findProc("unused");
  ASSERT_NE(Unused, nullptr);
  EXPECT_EQ(Unused->Params.size(), 1u);
  EXPECT_EQ(countKind(*Unused, CfgNodeKind::Branch), 1u);
}

TEST(ClosingEdgeTest, RecursiveTaintedProcedure) {
  CompileResult R = compile(R"(
chan c[8];

proc walk(n, depth) {
  if (depth >= 2)
    return 0;
  if (n % 2 == 0)
    send(c, depth);
  else
    send(c, -depth);
  return walk(n / 2, depth + 1);
}

proc main() {
  var x;
  var r;
  x = env_input();
  r = walk(x, 0);
}

process m = main();
)");
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  const ProcCfg *Walk = R.M->findProc("walk");
  ASSERT_NE(Walk, nullptr);
  // n is env-bound (via main) and recursively re-bound: removed. depth is
  // internal (constants 0, depth+1): kept.
  ASSERT_EQ(Walk->Params.size(), 1u);
  EXPECT_EQ(Walk->Params[0], "depth");
  // The parity test became a toss; the depth guard survived.
  EXPECT_EQ(countKind(*Walk, CfgNodeKind::TossBranch), 1u);
  EXPECT_EQ(countKind(*Walk, CfgNodeKind::Branch), 1u);

  // Executable and bounded.
  SearchStats Stats = explore(*R.M, {}).Stats;
  EXPECT_TRUE(Stats.Completed);
  EXPECT_EQ(Stats.RuntimeErrors, 0u);
  EXPECT_GT(Stats.Terminations, 0u);
}

TEST(ClosingEdgeTest, EnvOutputOfUntaintedValueStillRemoved) {
  CompileResult R = compile(R"(
chan c[2];

proc main() {
  var ok = 7;
  env_output(ok);
  send(c, ok);
}

process m = main();
)");
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_EQ(R.Closing.EnvCallsRemoved, 1u);
  for (const ProcCfg &Proc : R.M->Procs)
    for (const CfgNode &Node : Proc.Nodes)
      EXPECT_FALSE(Node.Kind == CfgNodeKind::Call &&
                   Node.Builtin == BuiltinKind::EnvOutput);
  // The untainted send payload is intact.
  const ProcCfg &P = R.M->Procs[0];
  for (const CfgNode &Node : P.Nodes)
    if (Node.Kind == CfgNodeKind::Call && Node.Builtin == BuiltinKind::Send) {
      EXPECT_EQ(Node.Args[1]->Kind, ExprKind::VarRef);
    }
}

TEST(ClosingEdgeTest, WholeBodyEliminatedYieldsStartToReturn) {
  CompileResult R = compile(R"(
proc main() {
  var a;
  var b;
  a = env_input();
  b = a * 2;
  env_output(b);
}

process m = main();
)");
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  const ProcCfg &P = R.M->Procs[0];
  // Everything was environment-dependent: only Start and Return remain.
  ASSERT_EQ(P.Nodes.size(), 2u);
  EXPECT_EQ(P.Nodes[0].Kind, CfgNodeKind::Start);
  EXPECT_EQ(P.Nodes[1].Kind, CfgNodeKind::Return);
}

TEST(ClosingEdgeTest, MixedConstAndEnvInstantiationsRemoveParamEverywhere) {
  // One env instantiation taints the parameter for every instance; the
  // constant instantiation loses its (now meaningless) argument too —
  // exactly the conservatism the paper describes for Step 5.
  CompileResult R = compile(R"(
chan c[4];

proc worker(id) {
  if (id > 0)
    send(c, 1);
  else
    send(c, 2);
}

process w1 = worker(7);
process w2 = worker(env);
)");
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_TRUE(R.M->findProc("worker")->Params.empty());
  for (const ProcessDecl &Inst : R.M->Processes)
    EXPECT_TRUE(Inst.Args.empty());
  // Both processes now behave most-generally (toss).
  const ProcCfg &P = *R.M->findProc("worker");
  EXPECT_EQ(countKind(P, CfgNodeKind::TossBranch), 1u);
}

} // namespace
