//===- SearchBudgetTest.cpp - Explorer budgets, replay, reports --------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "explorer/Search.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace closer;

namespace {

const char *tossTree(int Width) {
  static std::string Src;
  Src = R"(
chan c[4];

proc main() {
  var a;
  var b;
  a = VS_toss()" +
        std::to_string(Width) + R"();
  b = VS_toss()" +
        std::to_string(Width) + R"();
  send(c, a);
}

process m = main();
)";
  return Src.c_str();
}

TEST(SearchBudgetTest, MaxStatesStopsSearch) {
  auto Mod = mustCompile(tossTree(9));
  SearchOptions Opts;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  Opts.MaxStates = 20;
  Explorer Ex(*Mod, Opts);
  SearchStats Stats = Ex.run();
  EXPECT_FALSE(Stats.Completed);
  EXPECT_LE(Stats.StatesVisited, 20u);
}

TEST(SearchBudgetTest, ReportCapLimitsStoredReportsNotCounts) {
  auto Mod = mustCompile(R"(
proc main() {
  var x;
  x = VS_toss(9);
  VS_assert(x == 0);
}

process m = main();
)");
  SearchOptions Opts;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  Opts.MaxReports = 3;
  Explorer Ex(*Mod, Opts);
  SearchStats Stats = Ex.run();
  EXPECT_EQ(Stats.AssertionViolations, 9u); // Outcomes 1..9 violate.
  EXPECT_EQ(Ex.reports().size(), 3u);       // Storage capped.
}

TEST(SearchBudgetTest, RunIsDeterministicAcrossInvocations) {
  auto Mod = mustCompile(tossTree(3));
  SearchOptions Opts;
  Explorer Ex1(*Mod, Opts);
  Explorer Ex2(*Mod, Opts);
  SearchStats A = Ex1.run();
  SearchStats B = Ex2.run();
  EXPECT_EQ(A.Runs, B.Runs);
  EXPECT_EQ(A.StatesVisited, B.StatesVisited);
  EXPECT_EQ(A.TreeTransitions, B.TreeTransitions);
  EXPECT_EQ(A.Transitions, B.Transitions);

  // Re-running on the same Explorer also reproduces the numbers (full
  // reset semantics).
  SearchStats C = Ex1.run();
  EXPECT_EQ(A.Runs, C.Runs);
  EXPECT_EQ(A.StatesVisited, C.StatesVisited);
}

TEST(SearchBudgetTest, StatsStringMentionsEveryCounter) {
  SearchStats Stats;
  Stats.Runs = 1;
  Stats.Completed = true;
  std::string Text = Stats.str();
  for (const char *Key :
       {"runs=", "states=", "transitions=", "deadlocks=", "terminations=",
        "assertion-violations=", "divergences=", "runtime-errors=",
        "sleep-prunes=", "(complete)"})
    EXPECT_NE(Text.find(Key), std::string::npos) << Key;
}

TEST(SearchBudgetTest, DivergenceReportedDuringSearch) {
  auto Mod = mustCompile(R"(
chan c[1];

proc main() {
  var x;
  var spin;
  x = VS_toss(1);
  send(c, x);
  if (x == 1) {
    spin = 1;
    while (spin)
      spin = spin;
  }
}

process m = main();
)");
  SearchOptions Opts;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  Opts.Runtime.InvisibleStepLimit = 200;
  Explorer Ex(*Mod, Opts);
  SearchStats Stats = Ex.run();
  EXPECT_EQ(Stats.Divergences, 1u);
  bool Found = false;
  for (const ErrorReport &R : Ex.reports())
    Found |= R.Kind == ErrorReport::Type::Divergence;
  EXPECT_TRUE(Found);
}

TEST(SearchBudgetTest, CoverageCountsExercisedVisibleOps) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var x;
  x = VS_toss(1);
  if (x == 0)
    send(c, 'left');
  else
    send(c, 'right');
  VS_assert(x >= 0);
}

process m = main();
)");
  SearchOptions Opts;
  Explorer Ex(*Mod, Opts);
  SearchStats Stats = Ex.run();
  // Both sends and the assert are reachable and covered.
  EXPECT_EQ(Stats.VisibleOpsTotal, 3u);
  EXPECT_EQ(Stats.VisibleOpsCovered, 3u);
  EXPECT_TRUE(Ex.uncoveredVisibleOps().empty());
  EXPECT_NE(Stats.str().find("visible-op-coverage=3/3"), std::string::npos);
}

TEST(SearchBudgetTest, CoverageExposesUnreachableOps) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var x = 1;
  if (x == 0)
    send(c, 'dead');
  else
    send(c, 'live');
}

process m = main();
)");
  Explorer Ex(*Mod, {});
  SearchStats Stats = Ex.run();
  EXPECT_EQ(Stats.VisibleOpsTotal, 2u);
  EXPECT_EQ(Stats.VisibleOpsCovered, 1u);
  auto Uncovered = Ex.uncoveredVisibleOps();
  ASSERT_EQ(Uncovered.size(), 1u);
  EXPECT_EQ(Uncovered[0].first, "main");
}

TEST(SearchBudgetTest, DepthBoundLimitsCoverage) {
  auto Mod = mustCompile(R"(
chan c[8];

proc main() {
  send(c, 1);
  send(c, 2);
  send(c, 3);
}

process m = main();
)");
  SearchOptions Shallow;
  Shallow.MaxDepth = 1;
  Explorer Ex(*Mod, Shallow);
  SearchStats Stats = Ex.run();
  EXPECT_EQ(Stats.VisibleOpsCovered, 1u);
  EXPECT_EQ(Ex.uncoveredVisibleOps().size(), 2u);
}

TEST(SearchBudgetTest, ErrorReportRenderingIsInformative) {
  auto Mod = mustCompile(R"(
sem a(1);
sem b(1);
chan done[1];

proc left() {
  sem_wait(a);
  sem_wait(b);
  send(done, 1);
}

proc right() {
  sem_wait(b);
  sem_wait(a);
  send(done, 2);
}

process l = left();
process r = right();
)");
  SearchOptions Opts;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  Explorer Ex(*Mod, Opts);
  Ex.run();
  ASSERT_FALSE(Ex.reports().empty());
  std::string Text = Ex.reports()[0].str();
  EXPECT_NE(Text.find("deadlock"), std::string::npos) << Text;
  EXPECT_NE(Text.find("sem_wait"), std::string::npos) << Text;
  EXPECT_NE(Text.find("depth"), std::string::npos) << Text;
}

} // namespace
