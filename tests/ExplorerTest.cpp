//===- ExplorerTest.cpp - Tests for the stateless explorer -----------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "explorer/Search.h"

#include "RandomProgram.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace closer;

namespace {

SearchOptions plainOptions() {
  SearchOptions Opts;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  return Opts;
}

TEST(ExplorerTest, SingleProcessSingleRun) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  send(c, 1);
  send(c, 2);
}

process m = main();
)");
  Explorer Ex(*Mod, plainOptions());
  SearchStats Stats = Ex.run();
  EXPECT_TRUE(Stats.Completed);
  EXPECT_EQ(Stats.Runs, 1u);
  EXPECT_EQ(Stats.Terminations, 1u);
  EXPECT_EQ(Stats.Deadlocks, 0u);
  EXPECT_EQ(Stats.TreeTransitions, 2u);
}

TEST(ExplorerTest, TossExploresAllOutcomes) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var x;
  x = VS_toss(2);
  send(c, x);
}

process m = main();
)");
  Explorer Ex(*Mod, plainOptions());
  SearchStats Stats = Ex.run();
  EXPECT_TRUE(Stats.Completed);
  EXPECT_EQ(Stats.Runs, 3u); // Outcomes 0, 1, 2.
  EXPECT_EQ(Stats.Terminations, 3u);

  Explorer Ex2(*Mod, plainOptions());
  std::vector<Trace> Traces = Ex2.collectTraces(10);
  ASSERT_EQ(Traces.size(), 3u);
}

TEST(ExplorerTest, InterleavingsWithoutReduction) {
  // Two fully independent processes, two sends each: C(4,2) = 6
  // interleavings without reduction.
  auto Mod = mustCompile(R"(
chan a[4];
chan b[4];

proc pa() {
  send(a, 1);
  send(a, 2);
}

proc pb() {
  send(b, 1);
  send(b, 2);
}

process x = pa();
process y = pb();
)");
  Explorer Ex(*Mod, plainOptions());
  SearchStats Stats = Ex.run();
  EXPECT_TRUE(Stats.Completed);
  EXPECT_EQ(Stats.Terminations, 6u);

  // With persistent sets the processes never interact: one interleaving.
  SearchOptions Por;
  Por.UsePersistentSets = true;
  Por.UseSleepSets = true;
  Explorer ExPor(*Mod, Por);
  SearchStats StatsPor = ExPor.run();
  EXPECT_TRUE(StatsPor.Completed);
  EXPECT_EQ(StatsPor.Terminations, 1u);
  EXPECT_LT(StatsPor.StatesVisited, Stats.StatesVisited);
}

TEST(ExplorerTest, SleepSetsPruneConflictFreeInterleavings) {
  // Both processes touch the same channel, so persistent sets cannot
  // separate them, but sleep sets still avoid re-exploring commuting
  // interleavings of the enqueue orderings... orderings differ here
  // (payloads interleave in the FIFO), so all distinct contents are still
  // reached — sleep sets must not lose any of them.
  auto Mod = mustCompile(R"(
chan c[8];

proc pa() {
  send(c, 'fromA');
}

proc pb() {
  send(c, 'fromB');
}

process x = pa();
process y = pb();
)");
  Explorer Plain(*Mod, plainOptions());
  SearchStats S1 = Plain.run();
  EXPECT_EQ(S1.Terminations, 2u); // A-then-B and B-then-A.

  SearchOptions WithSleep = plainOptions();
  WithSleep.UseSleepSets = true;
  Explorer Slept(*Mod, WithSleep);
  SearchStats S2 = Slept.run();
  // Dependent transitions: both orders must still be explored.
  EXPECT_EQ(S2.Terminations, 2u);
}

TEST(ExplorerTest, DeadlockFoundAndReported) {
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
  Explorer Ex(*Mod, plainOptions());
  SearchStats Stats = Ex.run();
  EXPECT_TRUE(Stats.Completed);
  EXPECT_GE(Stats.Deadlocks, 1u);
  EXPECT_GE(Stats.Terminations, 1u);
  ASSERT_FALSE(Ex.reports().empty());
  EXPECT_EQ(Ex.reports()[0].Kind, ErrorReport::Type::Deadlock);

  // Partial-order reduction must preserve deadlock detection (Theorem in
  // [God96]; experiment E7's correctness side).
  SearchOptions Por;
  Explorer ExPor(*Mod, Por);
  SearchStats StatsPor = ExPor.run();
  EXPECT_TRUE(StatsPor.Completed);
  EXPECT_GE(StatsPor.Deadlocks, 1u);
}

TEST(ExplorerTest, AssertionViolationFoundOnlyOnBadPath) {
  auto Mod = mustCompile(R"(
proc main() {
  var x;
  x = VS_toss(3);
  VS_assert(x != 2);
}

process m = main();
)");
  Explorer Ex(*Mod, plainOptions());
  SearchStats Stats = Ex.run();
  EXPECT_TRUE(Stats.Completed);
  EXPECT_EQ(Stats.AssertionViolations, 1u);
  ASSERT_EQ(Ex.reports().size(), 1u);
  EXPECT_EQ(Ex.reports()[0].Kind, ErrorReport::Type::AssertionViolation);
}

TEST(ExplorerTest, StopOnFirstError) {
  auto Mod = mustCompile(R"(
proc main() {
  var x;
  x = VS_toss(9);
  VS_assert(x != 0);
}

process m = main();
)");
  SearchOptions Opts = plainOptions();
  Opts.StopOnFirstError = true;
  Explorer Ex(*Mod, Opts);
  SearchStats Stats = Ex.run();
  EXPECT_FALSE(Stats.Completed);
  EXPECT_EQ(Stats.AssertionViolations, 1u);
  EXPECT_EQ(Stats.Runs, 1u);
}

TEST(ExplorerTest, DepthBoundCutsSearch) {
  auto Mod = mustCompile(R"(
chan c[1];

proc pinger() {
  var i = 0;
  while (1) {
    send(c, i);
    i = i + 1;
  }
}

proc ponger() {
  var v;
  while (1)
    v = recv(c);
}

process a = pinger();
process b = ponger();
)");
  SearchOptions Opts = plainOptions();
  Opts.MaxDepth = 10;
  Explorer Ex(*Mod, Opts);
  SearchStats Stats = Ex.run();
  EXPECT_TRUE(Stats.Completed);
  EXPECT_GT(Stats.DepthLimitHits, 0u);
  EXPECT_EQ(Stats.Deadlocks, 0u);
}

TEST(ExplorerTest, StateHashingPrunesDiamonds) {
  // Two commuting increments onto disjoint shared variables produce
  // diamond-shaped state spaces; hashing collapses the join states.
  auto Mod = mustCompile(R"(
shared u = 0;
shared v = 0;
chan sync[2];

proc pa() {
  write(u, 1);
  write(v, 1);
}

proc pb() {
  write(u, 2);
  write(v, 2);
}

process x = pa();
process y = pb();
)");
  SearchOptions Plain = plainOptions();
  Explorer Ex(*Mod, Plain);
  SearchStats S1 = Ex.run();

  SearchOptions Hashed = plainOptions();
  Hashed.StateCacheBits = StateCache::DefaultBits;
  Explorer ExH(*Mod, Hashed);
  SearchStats S2 = ExH.run();
  EXPECT_GT(S2.CacheHits, 0u);
  EXPECT_LT(S2.StatesVisited, S1.StatesVisited);
}

TEST(ExplorerTest, OpenModuleExploresEnvironmentChoices) {
  // Executing an open module directly: env_input ranges over the finite
  // domain [0, EnvDomainBound] — the naive most-general environment.
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var x;
  x = env_input();
  send(c, x);
}

process m = main();
)");
  SearchOptions Opts = plainOptions();
  Opts.Runtime.EnvDomainBound = 4;
  Explorer Ex(*Mod, Opts);
  SearchStats Stats = Ex.run();
  EXPECT_TRUE(Stats.Completed);
  EXPECT_EQ(Stats.Terminations, 5u); // Domain {0..4}.
}

TEST(ExplorerTest, RuntimeErrorReportedWithTrace) {
  auto Mod = mustCompile(R"(
chan c[2];

proc main() {
  var x;
  send(c, 7);
  x = VS_toss(1);
  x = 10 / x;
}

process m = main();
)");
  Explorer Ex(*Mod, plainOptions());
  SearchStats Stats = Ex.run();
  EXPECT_TRUE(Stats.Completed);
  EXPECT_EQ(Stats.RuntimeErrors, 1u); // Only the x == 0 branch divides by 0.
  ASSERT_FALSE(Ex.reports().empty());
  const ErrorReport &R = Ex.reports()[0];
  EXPECT_EQ(R.Kind, ErrorReport::Type::RuntimeError);
  EXPECT_EQ(R.Error.Kind, RunErrorKind::DivisionByZero);
  ASSERT_EQ(R.TraceToError.size(), 1u);
  EXPECT_EQ(R.TraceToError[0].Object, "c");
}

TEST(ExplorerTest, PersistentSetsSplitComponentsDynamically) {
  // Both processes touch the shared channel `sync` first, then work on
  // disjoint channels. The static whole-program footprints overlap, but
  // the *remaining* footprints become disjoint after the sync phase — the
  // persistent sets must start separating the processes mid-run.
  auto Mod = mustCompile(R"(
chan sync[2];
chan a[4];
chan b[4];

proc pa() {
  send(sync, 1);
  send(a, 1);
  send(a, 2);
  send(a, 3);
}

proc pb() {
  send(sync, 2);
  send(b, 1);
  send(b, 2);
  send(b, 3);
}

process x = pa();
process y = pb();
)");
  Explorer Plain(*Mod, plainOptions());
  SearchStats Full = Plain.run();

  SearchOptions Por;
  Explorer Reduced(*Mod, Por);
  SearchStats WithPor = Reduced.run();

  EXPECT_TRUE(Full.Completed);
  EXPECT_TRUE(WithPor.Completed);
  // The sync prefix still interleaves (2 orders) but the disjoint tails
  // collapse: far fewer states than the full product.
  EXPECT_LT(WithPor.StatesVisited * 4, Full.StatesVisited)
      << "full=" << Full.str() << "\npor=" << WithPor.str();
  EXPECT_EQ(WithPor.Deadlocks, Full.Deadlocks);
}

TEST(ExplorerTest, AssertOnlyProcessIsIndependentOfEverything) {
  // VS_assert touches no communication object, so a checker process never
  // constrains the reduction and its violation is still found.
  auto Mod = mustCompile(R"(
chan c[2];

proc worker() {
  send(c, 1);
  send(c, 2);
}

proc checker() {
  var x;
  x = VS_toss(1);
  VS_assert(x == 0);
}

process w = worker();
process k = checker();
)");
  SearchOptions Por;
  Explorer Ex(*Mod, Por);
  SearchStats Stats = Ex.run();
  EXPECT_TRUE(Stats.Completed);
  EXPECT_EQ(Stats.AssertionViolations, 1u);
}

TEST(ExplorerTest, MaxRunsBudget) {
  auto Mod = mustCompile(R"(
proc main() {
  var x;
  x = VS_toss(99);
}

process m = main();
)");
  SearchOptions Opts = plainOptions();
  Opts.MaxRuns = 10;
  Explorer Ex(*Mod, Opts);
  SearchStats Stats = Ex.run();
  EXPECT_FALSE(Stats.Completed);
  EXPECT_EQ(Stats.Runs, 10u);
}

TEST(ExplorerTest, SecondRunStartsFromCleanSlate) {
  // run() must fully re-initialize the traversal state: a second run on
  // the same Explorer reports exactly the same statistics and errors as
  // the first, not a continuation (or corruption) of the previous walk.
  auto Mod = mustCompile(R"(
proc main() {
  var x;
  x = VS_toss(3);
  VS_assert(x != 2);
}

process m = main();
)");
  Explorer Ex(*Mod, plainOptions());
  SearchStats First = Ex.run();
  std::string FirstStr = First.str();
  size_t FirstReports = Ex.reports().size();
  EXPECT_EQ(FirstReports, 1u);

  SearchStats Second = Ex.run();
  EXPECT_EQ(FirstStr, Second.str());
  EXPECT_EQ(FirstReports, Ex.reports().size());
}

TEST(ExplorerTest, SequentialSearchIsDeterministic) {
  // Two independent explorers over the same module must agree on every
  // statistic — the search order is a pure function of the module.
  for (uint64_t Seed : {3u, 1009u}) {
    auto Mod = mustCompile(randomOpenProgram(Seed));
    ASSERT_TRUE(Mod) << "seed " << Seed;
    SearchOptions Opts;
    Opts.MaxDepth = 10;
    Explorer A(*Mod, Opts);
    Explorer B(*Mod, Opts);
    std::string SA = A.run().str();
    std::string SB = B.run().str();
    EXPECT_EQ(SA, SB) << "seed " << Seed;
    EXPECT_EQ(A.reports().size(), B.reports().size()) << "seed " << Seed;
  }
}

} // namespace
