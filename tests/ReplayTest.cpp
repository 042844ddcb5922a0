//===- ReplayTest.cpp - Deterministic scenario replay tests ------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "explorer/Replay.h"

#include "explorer/Search.h"
#include "support/Random.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace closer;

namespace {

TEST(ReplayTest, RoundTripSerialization) {
  std::vector<ReplayStep> Steps = {
      {ReplayStep::Kind::Env, 3},
      {ReplayStep::Kind::Sched, 1},
      {ReplayStep::Kind::Toss, 0},
      {ReplayStep::Kind::Sched, 0},
  };
  std::string Text = replayToString(Steps);
  EXPECT_EQ(Text, "e3 s1 t0 s0");

  std::vector<ReplayStep> Parsed;
  ASSERT_TRUE(parseReplay(Text, Parsed));
  ASSERT_EQ(Parsed.size(), Steps.size());
  for (size_t I = 0; I != Steps.size(); ++I) {
    EXPECT_EQ(Parsed[I].K, Steps[I].K);
    EXPECT_EQ(Parsed[I].Value, Steps[I].Value);
  }
}

TEST(ReplayTest, ParseRejectsGarbage) {
  std::vector<ReplayStep> Out;
  EXPECT_FALSE(parseReplay("x1", Out));
  EXPECT_FALSE(parseReplay("s", Out));
  EXPECT_FALSE(parseReplay("s1b", Out));
  EXPECT_TRUE(parseReplay("", Out));
  EXPECT_TRUE(Out.empty());
}

TEST(ReplayTest, DeadlockReportReplaysToTheSameDeadlock) {
  auto Mod = mustCompile(R"(
sem a(1);
sem b(1);
chan done[2];

proc left() {
  sem_wait(a);
  sem_wait(b);
  send(done, 1);
  sem_signal(b);
  sem_signal(a);
}

proc right() {
  sem_wait(b);
  sem_wait(a);
  send(done, 2);
  sem_signal(a);
  sem_signal(b);
}

process l = left();
process r = right();
)");
  SearchOptions Opts;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  SearchResult Search = explore(*Mod, Opts);
  ASSERT_FALSE(Search.Reports.empty());
  const ErrorReport &Rep = Search.Reports[0];
  ASSERT_EQ(Rep.Kind, ErrorReport::Type::Deadlock);
  ASSERT_FALSE(Rep.Choices.empty());

  ReplayResult R = replayChoices(*Mod, Rep.Choices);
  EXPECT_TRUE(R.Faithful);
  EXPECT_EQ(R.Final, GlobalStateKind::Deadlock);
  EXPECT_EQ(traceToString(R.TraceOut), traceToString(Rep.TraceToError));
}

TEST(ReplayTest, AssertionReportReplaysToTheSameViolation) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var x;
  x = VS_toss(3);
  send(c, x);
  VS_assert(x != 2);
}

process m = main();
)");
  SearchOptions Opts;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  SearchResult Search = explore(*Mod, Opts);
  ASSERT_EQ(Search.Reports.size(), 1u);
  const ErrorReport &Rep = Search.Reports[0];

  ReplayResult R = replayChoices(*Mod, Rep.Choices);
  EXPECT_TRUE(R.Faithful);
  ASSERT_EQ(R.Violations.size(), 1u);
  // The offending toss outcome (2) is visible in the replayed trace.
  ASSERT_FALSE(R.TraceOut.empty());
  EXPECT_EQ(R.TraceOut[0].Payload, Value::makeInt(2));
}

TEST(ReplayTest, EnvChoicesReplayOnOpenModules) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var x;
  x = env_input();
  send(c, x);
  VS_assert(x != 1);
}

process m = main();
)");
  SearchOptions Opts;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  Opts.Runtime.EnvDomainBound = 3;
  SearchResult Search = explore(*Mod, Opts);
  ASSERT_EQ(Search.Reports.size(), 1u);

  SystemOptions SysOpts;
  SysOpts.EnvDomainBound = 3;
  ReplayResult R = replayChoices(*Mod, Search.Reports[0].Choices, SysOpts);
  EXPECT_TRUE(R.Faithful);
  EXPECT_EQ(R.Violations.size(), 1u);
  EXPECT_EQ(R.TraceOut[0].Payload, Value::makeInt(1));
}

TEST(ReplayTest, UnfaithfulWhenChoicesDoNotFit) {
  auto Mod = mustCompile(R"(
chan c[2];

proc main() {
  send(c, 1);
}

process m = main();
)");
  // Schedule a process that does not exist.
  ReplayResult R = replayChoices(*Mod, {{ReplayStep::Kind::Sched, 7}});
  EXPECT_FALSE(R.Faithful);

  // Toss step where a schedule is expected.
  ReplayResult R2 = replayChoices(*Mod, {{ReplayStep::Kind::Toss, 0}});
  EXPECT_FALSE(R2.Faithful);
}

TEST(ReplayTest, RoundTripRandomSequences) {
  // Property: toString then parse is the identity on any step sequence,
  // and the rendering is a fixed point of the round trip.
  Rng R(2026);
  for (int Trial = 0; Trial != 200; ++Trial) {
    std::vector<ReplayStep> Steps;
    size_t Len = R.below(24);
    for (size_t I = 0; I != Len; ++I) {
      ReplayStep S;
      switch (R.below(3)) {
      case 0: S.K = ReplayStep::Kind::Sched; break;
      case 1: S.K = ReplayStep::Kind::Toss; break;
      default: S.K = ReplayStep::Kind::Env; break;
      }
      S.Value = static_cast<int64_t>(R.below(1000));
      Steps.push_back(S);
    }
    std::string Text = replayToString(Steps);
    std::vector<ReplayStep> Parsed;
    ASSERT_TRUE(parseReplay(Text, Parsed)) << Text;
    ASSERT_EQ(Parsed.size(), Steps.size()) << Text;
    for (size_t I = 0; I != Steps.size(); ++I) {
      EXPECT_EQ(Parsed[I].K, Steps[I].K) << Text << " step " << I;
      EXPECT_EQ(Parsed[I].Value, Steps[I].Value) << Text << " step " << I;
    }
    EXPECT_EQ(replayToString(Parsed), Text);
  }
}

TEST(ReplayTest, ParseRejectsMalformedInputs) {
  for (const char *Bad :
       {"q3", "s1 x2", "t", "7", "s1 t", "e5 s", "s1s2"}) {
    std::vector<ReplayStep> Out;
    EXPECT_FALSE(parseReplay(Bad, Out)) << "accepted: " << Bad;
  }
}

TEST(ReplayTest, UnfaithfulOnMissingAndSurplusChoices) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var x;
  send(c, 7);
  x = VS_toss(1);
  send(c, x);
}

process m = main();
)");
  // The full faithful sequence: schedule the only process, supply its
  // toss, schedule it again to completion.
  std::vector<ReplayStep> Full = {{ReplayStep::Kind::Sched, 0},
                                  {ReplayStep::Kind::Toss, 1},
                                  {ReplayStep::Kind::Sched, 0}};
  ReplayResult Ok = replayChoices(*Mod, Full);
  EXPECT_TRUE(Ok.Faithful);
  EXPECT_EQ(Ok.Final, GlobalStateKind::Termination);

  // Missing choice: the second transition consumes a toss mid-transition;
  // with the recording exhausted the replay cannot be faithful.
  ReplayResult Missing =
      replayChoices(*Mod, {{ReplayStep::Kind::Sched, 0}});
  EXPECT_FALSE(Missing.Faithful);

  // Surplus choice: a trailing schedule of an already-halted process is a
  // step the original run never took.
  std::vector<ReplayStep> Surplus = Full;
  Surplus.push_back({ReplayStep::Kind::Sched, 0});
  ReplayResult Extra = replayChoices(*Mod, Surplus);
  EXPECT_FALSE(Extra.Faithful);
}

TEST(ReplayTest, ReportRenderingIncludesReplayLine) {
  auto Mod = mustCompile(R"(
proc main() {
  var x;
  x = VS_toss(1);
  VS_assert(x == 0);
}

process m = main();
)");
  SearchResult Search = explore(*Mod, {});
  ASSERT_FALSE(Search.Reports.empty());
  std::string Text = Search.Reports[0].str();
  EXPECT_NE(Text.find("replay: "), std::string::npos) << Text;
}

} // namespace
