//===- DomainPartitionTest.cpp - §7 input-domain partitioning tests --------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "closing/DomainPartition.h"

#include "cfg/CfgVerifier.h"
#include "closing/Pipeline.h"
#include "envgen/NaiveClose.h"
#include "explorer/Search.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace closer;

namespace {

/// The paper's §7 motivating shape: a resource manager whose visible
/// behavior depends only on which range the request falls into.
const char *resourceManagerSource() {
  return R"(
chan grants[8];

proc manager() {
  var req;
  var round;
  for (round = 0; round < 2; round = round + 1) {
    req = env_input();
    if (req < 10)
      send(grants, 'small');
    else {
      if (req < 100)
        send(grants, 'medium');
      else
        send(grants, 'large');
    }
  }
}

process m = manager();
)";
}

TEST(DomainPartitionTest, PartitionsRangeClassifiedInput) {
  auto Mod = mustCompile(resourceManagerSource());
  PartitionStats Stats;
  Module Simplified = partitionInputs(*Mod, {}, &Stats);
  EXPECT_EQ(Stats.InputsPartitioned, 1u);
  EXPECT_EQ(Stats.InputsLeftOpen, 0u);
  // Thresholds {10, 100} -> representatives {9,10,11,99,100,101}.
  EXPECT_EQ(Stats.RepresentativesTotal, 6u);

  DiagnosticEngine Diags;
  EXPECT_TRUE(verifyModule(Simplified, Diags)) << Diags.str();

  // No environment interface remains, and the range tests are PRESERVED.
  EnvAnalysis Analysis(Simplified);
  EXPECT_TRUE(Analysis.moduleIsClosed());
  size_t Branches = 0;
  for (const CfgNode &Node : Simplified.Procs[0].Nodes)
    Branches += Node.Kind == CfgNodeKind::Branch;
  EXPECT_EQ(Branches, 3u); // Loop bound + both range tests.
}

TEST(DomainPartitionTest, PartitionedSystemIsExactNotOverApproximate) {
  // The standard closing over-approximates: it replaces the classification
  // with a free toss. Partitioning is exact for this program: its trace
  // set equals the naive closing over a domain that crosses both
  // thresholds.
  auto Mod = mustCompile(resourceManagerSource());
  Module Simplified = partitionInputs(*Mod);

  SearchOptions Opts;
  Opts.MaxDepth = 12;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;

  TraceSet Part = collectTraces(Simplified, Opts, 512);

  Module Naive = naiveCloseModule(*Mod, {127}); // Domain [0,127]: spans 10
                                                // and 100.
  TraceSet NaiveSet = collectTraces(Naive, Opts, 100000);

  auto Key = [](const std::vector<Trace> &Ts) {
    std::set<std::string> S;
    for (const Trace &T : Ts)
      S.insert(traceToString(T));
    return S;
  };
  // Same visible-behavior sets — but found with 6 representatives instead
  // of 128 values.
  EXPECT_EQ(Key(Part.Traces), Key(NaiveSet.Traces));
  EXPECT_LT(Part.Stats.Runs, NaiveSet.Stats.Runs / 10);
}

TEST(DomainPartitionTest, EnvProcessArgumentPartitioned) {
  auto Mod = mustCompile(R"(
chan out[4];

proc gate(threshold) {
  if (threshold >= 5)
    send(out, 'hi');
  else
    send(out, 'lo');
}

process g = gate(env);
)");
  PartitionStats Stats;
  Module Simplified = partitionInputs(*Mod, {}, &Stats);
  EXPECT_EQ(Stats.ParamsPartitioned, 1u);

  DiagnosticEngine Diags;
  ASSERT_TRUE(verifyModule(Simplified, Diags)) << Diags.str();
  EXPECT_TRUE(Simplified.findProc("gate")->Params.empty());
  EXPECT_TRUE(Simplified.Processes[0].Args.empty());

  EnvAnalysis Analysis(Simplified);
  EXPECT_TRUE(Analysis.moduleIsClosed());

  // Both classifications reachable.
  std::vector<Trace> Traces = collectTraces(Simplified, {}, 16).Traces;
  std::set<std::string> Payloads;
  for (const Trace &T : Traces)
    for (const VisibleEvent &E : T)
      Payloads.insert(E.Payload.str());
  EXPECT_TRUE(Payloads.count("'hi'"));
  EXPECT_TRUE(Payloads.count("'lo'"));
}

TEST(DomainPartitionTest, TwoPartitionableParamsInOneProc) {
  // Regression: removing partitioned params used erase() with indices
  // captured before the first removal, so the second partitioned param of
  // the same proc shifted down and the wrong slot was erased. Params at
  // indices 0 and 2 both partition here while index 1 must survive (its
  // value flows into a payload).
  auto Mod = mustCompile(R"(
chan c[4];
proc work(a, b, x) {
  if (a < 3)
    send(c, 1);
  b = b + 1;
  send(c, b);
  if (x < 7)
    send(c, 2);
}
process m = work(env, env, env);
)");
  PartitionStats Stats;
  Module Simplified = partitionInputs(*Mod, {}, &Stats);
  EXPECT_EQ(Stats.ParamsPartitioned, 2u);

  DiagnosticEngine Diags;
  ASSERT_TRUE(verifyModule(Simplified, Diags)) << Diags.str();

  // Exactly the un-partitionable middle param remains, in both the proc
  // signature and the instantiation.
  const ProcCfg *Work = Simplified.findProc("work");
  ASSERT_NE(Work, nullptr);
  ASSERT_EQ(Work->Params.size(), 1u);
  EXPECT_EQ(Work->Params[0], "b");
  ASSERT_EQ(Simplified.Processes[0].Args.size(), 1u);

  // All four classification outcomes stay reachable: {1 sent, not} x
  // {2 sent, not}.
  Module Closed = closeModule(Simplified);
  EnvAnalysis Analysis(Closed);
  EXPECT_TRUE(Analysis.moduleIsClosed());
  std::vector<Trace> Traces = collectTraces(Closed, {}, 256).Traces;
  std::set<std::pair<bool, bool>> Outcomes;
  for (const Trace &T : Traces) {
    bool SentOne = false, SentTwo = false;
    for (const VisibleEvent &E : T) {
      SentOne |= E.Payload.str() == "1";
      SentTwo |= E.Payload.str() == "2";
    }
    Outcomes.insert({SentOne, SentTwo});
  }
  EXPECT_EQ(Outcomes.size(), 4u);
}

TEST(DomainPartitionTest, ArithmeticUseDisqualifies) {
  auto Mod = mustCompile(R"(
chan out[4];

proc p() {
  var x;
  var y;
  x = env_input();
  y = x + 1;
  if (y > 3)
    send(out, 1);
  else
    send(out, 0);
}

process m = p();
)");
  PartitionStats Stats;
  Module Simplified = partitionInputs(*Mod, {}, &Stats);
  EXPECT_EQ(Stats.InputsPartitioned, 0u);
  EXPECT_EQ(Stats.InputsLeftOpen, 1u);
  // The pipeline still closes it the standard way.
  Module Closed = closeModule(Simplified);
  EnvAnalysis Analysis(Closed);
  EXPECT_TRUE(Analysis.moduleIsClosed());
}

TEST(DomainPartitionTest, EscapingUseDisqualifies) {
  auto Mod = mustCompile(R"(
chan out[4];

proc p() {
  var x;
  x = env_input();
  if (x == 7)
    send(out, 1);
  else
    send(out, x);
}

process m = p();
)");
  PartitionStats Stats;
  partitionInputs(*Mod, {}, &Stats);
  EXPECT_EQ(Stats.InputsPartitioned, 0u)
      << "the value escapes through the send payload";
}

TEST(DomainPartitionTest, VariableComparisonDisqualifies) {
  auto Mod = mustCompile(R"(
chan out[4];

proc p(limit) {
  var x;
  x = env_input();
  if (x < limit)
    send(out, 1);
  else
    send(out, 0);
}

process m = p(3);
)");
  PartitionStats Stats;
  partitionInputs(*Mod, {}, &Stats);
  EXPECT_EQ(Stats.InputsPartitioned, 0u);
}

TEST(DomainPartitionTest, AddressTakenDisqualifies) {
  auto Mod = mustCompile(R"(
chan out[4];

proc p() {
  var x;
  var q;
  q = &x;
  x = env_input();
  if (x == 0)
    send(out, 1);
  else
    send(out, 0);
}

process m = p();
)");
  PartitionStats Stats;
  partitionInputs(*Mod, {}, &Stats);
  EXPECT_EQ(Stats.InputsPartitioned, 0u);
}

TEST(DomainPartitionTest, RepresentativeCapLeavesInputOpen) {
  auto Mod = mustCompile(R"(
chan out[4];

proc p() {
  var x;
  x = env_input();
  if (x < 10) send(out, 0);
  if (x < 20) send(out, 1);
  if (x < 30) send(out, 2);
  if (x < 40) send(out, 3);
  if (x < 50) send(out, 4);
  if (x < 60) send(out, 5);
}

process m = p();
)");
  PartitionOptions Small;
  Small.MaxRepresentatives = 4;
  PartitionStats Stats;
  partitionInputs(*Mod, Small, &Stats);
  EXPECT_EQ(Stats.InputsPartitioned, 0u);
  EXPECT_EQ(Stats.InputsLeftOpen, 1u);

  PartitionStats Big;
  partitionInputs(*Mod, {}, &Big); // Default cap 16; 6 thresholds -> <= 18?
  // Thresholds {10..60}: reps = 3 per threshold, merged where adjacent.
  EXPECT_LE(Big.RepresentativesTotal, 18u);
}

TEST(DomainPartitionTest, MixedInstantiationLeavesParamAlone) {
  auto Mod = mustCompile(R"(
chan out[4];

proc gate(threshold) {
  if (threshold >= 5)
    send(out, 'hi');
  else
    send(out, 'lo');
}

process g1 = gate(env);
process g2 = gate(3);
)");
  PartitionStats Stats;
  Module Simplified = partitionInputs(*Mod, {}, &Stats);
  EXPECT_EQ(Stats.ParamsPartitioned, 0u)
      << "a constant instantiation must block parameter rewriting";
  EXPECT_EQ(Simplified.findProc("gate")->Params.size(), 1u);
}

TEST(DomainPartitionTest, ComposesWithStandardClosing) {
  // A program with one partitionable and one opaque input.
  auto Mod = mustCompile(R"(
chan out[8];

proc p() {
  var range;
  var blob;
  range = env_input();
  if (range < 42)
    send(out, 'low');
  else
    send(out, 'high');
  blob = env_input();
  env_output(blob * 3);
}

process m = p();
)");
  PartitionStats Stats;
  Module Simplified = partitionInputs(*Mod, {}, &Stats);
  EXPECT_EQ(Stats.InputsPartitioned, 1u);
  EXPECT_EQ(Stats.InputsLeftOpen, 1u);

  ClosingStats CStats;
  Module Closed = closeModule(Simplified, {}, &CStats);
  DiagnosticEngine Diags;
  ASSERT_TRUE(verifyModule(Closed, Diags)) << Diags.str();
  EnvAnalysis Analysis(Closed);
  EXPECT_TRUE(Analysis.moduleIsClosed());
  // The preserved range test survived the second stage.
  bool RangeBranch = false;
  for (const CfgNode &Node : Closed.Procs[0].Nodes)
    if (Node.Kind == CfgNodeKind::Branch)
      RangeBranch = true;
  EXPECT_TRUE(RangeBranch);
}

} // namespace
