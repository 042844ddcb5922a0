//===- IntegrationTest.cpp - End-to-end pipeline on realistic apps ----------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// Whole-pipeline tests on hand-written reactive applications that combine
// language features the unit tests exercise in isolation: procedures with
// return values, pointers across frames, arrays, switch dispatch, every
// communication-object kind, and an open environment boundary.
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgPrinter.h"
#include "closing/Pipeline.h"
#include "envgen/NaiveClose.h"
#include "explorer/Search.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <set>

using namespace closer;

namespace {

/// An elevator controller: floor requests come from the environment, the
/// cabin logic is internal. Movement is structurally bounded (an untainted
/// step budget per request) so the closed over-approximation stays finite;
/// the preserved invariant is on the untainted request counter. Note the
/// shape: the *step budget* loop is a separate untainted conditional so
/// that closing the tainted `cur != goal` test cannot unbound the loop —
/// this is exactly the "write verification-friendly reactive code" guidance
/// the paper's methodology implies.
const char *elevatorSource() {
  return R"(
chan requests[2];
chan position[8];
shared floor = 0;

proc panel() {
  var k;
  var target;
  for (k = 0; k < 2; k = k + 1) {
    target = env_input();
    if (target > 0) {
      if (target < 4)
        send(requests, target);
      else
        send(requests, 3);
    } else {
      send(requests, 0);
    }
  }
}

proc move_one(cur, goal) {
  if (cur < goal)
    return cur + 1;
  if (cur > goal)
    return cur - 1;
  return cur;
}

proc cabin() {
  var goal;
  var cur = 0;
  var req;
  var step;
  var served = 0;
  for (req = 0; req < 2; req = req + 1) {
    goal = recv(requests);
    for (step = 0; step < 2; step = step + 1) {
      if (cur != goal) {
        cur = move_one(cur, goal);
        write(floor, cur);
        send(position, cur);
      }
    }
    served = served + 1;
    VS_assert(served <= 2);
  }
}

process pnl = panel();
process cab = cabin();
)";
}

/// An ATM: the card/PIN arrive from the environment; the vault and audit
/// logic are internal and use arrays and pointers.
const char *atmSource() {
  return R"(
chan audit[16];
sem vault(1);
var balances[4];

proc adjust(slot, delta) {
  var p;
  p = &balances[slot];
  *p = *p + delta;
  return *p;
}

proc atm() {
  var pin;
  var acct;
  var session;
  var newbal;
  for (session = 0; session < 2; session = session + 1) {
    pin = env_input();
    acct = session % 4;
    if (pin == 1234) {
      sem_wait(vault);
      newbal = adjust(acct, 10);
      send(audit, 'deposit');
      VS_assert(newbal >= 0);
      sem_signal(vault);
    } else {
      send(audit, 'rejected');
    }
  }
  send(audit, 'done');
}

proc auditor() {
  var ev;
  var deposits = 0;
  ev = recv(audit);
  while (ev != 'done') {
    if (ev == 'deposit')
      deposits = deposits + 1;
    VS_assert(deposits <= 2);
    ev = recv(audit);
  }
}

process machine = atm();
process log = auditor();
)";
}

void expectClosedAndExplorable(const char *Source, size_t Depth,
                               uint64_t ExpectAssertViolations = 0) {
  CompileResult R = compile(Source);
  ASSERT_TRUE(R.ok()) << R.Diags.str();

  EnvAnalysis Analysis(*R.M);
  EXPECT_TRUE(Analysis.moduleIsClosed());

  SearchOptions Opts;
  Opts.MaxDepth = Depth;
  Opts.MaxRuns = 400000;
  SearchResult Search = explore(*R.M, Opts);
  const SearchStats &Stats = Search.Stats;
  std::string First =
      Search.Reports.empty() ? Stats.str() : Search.Reports[0].str();
  EXPECT_TRUE(Stats.Completed) << Stats.str();
  EXPECT_EQ(Stats.AssertionViolations, ExpectAssertViolations) << First;
  EXPECT_EQ(Stats.RuntimeErrors, 0u) << First;
  EXPECT_GT(Stats.Terminations, 0u);
}

TEST(IntegrationTest, ElevatorClosesAndVerifies) {
  expectClosedAndExplorable(elevatorSource(), 50);
}

TEST(IntegrationTest, ElevatorTraceInclusion) {
  auto Mod = mustCompile(elevatorSource());
  Module Naive = naiveCloseModule(*Mod, {5});

  SearchOptions Opts;
  Opts.MaxDepth = 18;
  Opts.MaxRuns = 60000;
  std::vector<Trace> NaiveTraces = collectTraces(Naive, Opts, 48).Traces;
  ASSERT_FALSE(NaiveTraces.empty());

  CompileResult R = compile(elevatorSource());
  ASSERT_TRUE(R.ok());
  SearchOptions ClosedOpts = Opts;
  ClosedOpts.MaxRuns = 400000;
  TraceSet Closed = collectTraces(*R.M, ClosedOpts, 60000);
  if (!Closed.Stats.Completed)
    GTEST_SKIP() << "closed-side search budget exhausted";

  for (const Trace &NT : NaiveTraces) {
    bool Covered = false;
    for (const Trace &CT : Closed.Traces)
      if (traceSubsumes(CT, NT)) {
        Covered = true;
        break;
      }
    EXPECT_TRUE(Covered) << traceToString(NT);
  }
}

TEST(IntegrationTest, AtmClosesAndVerifies) {
  expectClosedAndExplorable(atmSource(), 40);
}

TEST(IntegrationTest, AtmPinCheckBecomesToss) {
  CompileResult R = compile(atmSource());
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  const ProcCfg *Atm = R.M->findProc("atm");
  ASSERT_NE(Atm, nullptr);
  size_t Tosses = 0;
  for (const CfgNode &Node : Atm->Nodes)
    Tosses += Node.Kind == CfgNodeKind::TossBranch;
  EXPECT_EQ(Tosses, 1u) << printCfg(*Atm);
  // The internal vault arithmetic survives: adjust() is still called.
  bool CallsAdjust = false;
  for (const CfgNode &Node : Atm->Nodes)
    CallsAdjust |= Node.Kind == CfgNodeKind::Call && Node.Callee == "adjust";
  EXPECT_TRUE(CallsAdjust);
}

TEST(IntegrationTest, AtmAuditorInvariantViolableUnderFreeEnvironment) {
  // Strengthen the auditor: claim at most ONE deposit. Under the most
  // general environment (both sessions may present the right PIN) this is
  // violated — the closed system must find it.
  std::string Strict = atmSource();
  size_t Pos = Strict.find("deposits <= 2");
  ASSERT_NE(Pos, std::string::npos);
  Strict.replace(Pos, std::string("deposits <= 2").size(), "deposits <= 1");

  CompileResult R = compile(Strict);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  SearchOptions Opts;
  Opts.MaxDepth = 40;
  EXPECT_GT(explore(*R.M, Opts).Stats.AssertionViolations, 0u);
}

TEST(IntegrationTest, EmittedElevatorBehavesIdentically) {
  CompileResult R = compile(elevatorSource());
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  std::string Emitted = emitModuleSource(*R.M);

  DiagnosticEngine Diags;
  auto Reparsed = compileAndVerify(Emitted, Diags);
  ASSERT_TRUE(Reparsed) << Diags.str() << "\n" << Emitted;

  SearchOptions Opts;
  Opts.MaxDepth = 16;
  std::vector<Trace> A = collectTraces(*R.M, Opts, 4096).Traces;
  std::vector<Trace> B = collectTraces(*Reparsed, Opts, 4096).Traces;
  std::set<std::string> SA, SB;
  for (const Trace &T : A)
    SA.insert(traceToString(T));
  for (const Trace &T : B)
    SB.insert(traceToString(T));
  EXPECT_EQ(SA, SB);
}

TEST(IntegrationTest, PartialStubMethodology) {
  // The §1 methodology as a test: the same device with (a) a precise
  // manual stub that issues at most one 'step', and (b) the most general
  // environment. The invariant (an *untainted* step counter stays <= 1)
  // holds under the stub and is violated under the free environment —
  // showing why the paper recommends stubbing the realistic part and
  // auto-closing the rest.
  const char *Stubbed = R"(
chan cmds[4];
chan out[8];

proc device() {
  var c;
  var k;
  var steps = 0;
  for (k = 0; k < 3; k = k + 1) {
    c = recv(cmds);
    if (c == 'step') {
      steps = steps + 1;
      send(out, steps);
    }
  }
  VS_assert(steps <= 1);
}

proc driver() {
  send(cmds, 'step');
  send(cmds, 'idle');
  send(cmds, 'idle');
}

process dev = device();
process drv = driver();
)";
  CompileResult R = compile(Stubbed);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  SearchOptions Opts;
  Opts.MaxDepth = 20;
  EXPECT_EQ(explore(*R.M, Opts).Stats.AssertionViolations, 0u)
      << "the stubbed driver issues at most one step";

  const char *Unstubbed = R"(
chan out[8];

proc device() {
  var c;
  var k;
  var steps = 0;
  for (k = 0; k < 3; k = k + 1) {
    c = env_input();
    if (c == 1) {
      steps = steps + 1;
      send(out, steps);
    }
  }
  VS_assert(steps <= 1);
}

process dev = device();
)";
  CompileResult R2 = compile(Unstubbed);
  ASSERT_TRUE(R2.ok()) << R2.Diags.str();
  // The counter is untainted (only constants flow into it), so the
  // assertion is preserved even though the branch became a toss.
  const ProcCfg *Dev = R2.M->findProc("device");
  for (const CfgNode &Node : Dev->Nodes)
    if (Node.Kind == CfgNodeKind::Call &&
        Node.Builtin == BuiltinKind::VsAssert) {
      EXPECT_NE(Node.Args[0]->Kind, ExprKind::Unknown);
    }
  EXPECT_GT(explore(*R2.M, Opts).Stats.AssertionViolations, 0u)
      << "the most general environment can step repeatedly";
}

} // namespace
