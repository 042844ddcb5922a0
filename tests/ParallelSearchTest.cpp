//===- ParallelSearchTest.cpp - Parallel vs sequential search equivalence --===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The parallel search partitions the search tree into disjoint subtrees,
// so every tree-shaped statistic and the error-report set must be identical
// to the one-job search's, for any worker count and any scheduling.
//
//===----------------------------------------------------------------------===//

#include "explorer/Search.h"

#include "../bench/BenchUtil.h"
#include "RandomProgram.h"
#include "TestUtil.h"
#include "closing/Pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace closer;

namespace {

void expectParallelMatchesSequential(const Module &Mod, SearchOptions Opts,
                                     const std::string &Label) {
  Opts.MaxReports = 4096; // Compare full error sets, not truncations.

  SearchOptions Seq = Opts;
  Seq.Jobs = 1;
  SearchResult Sequential = explore(Mod, Seq);

  SearchResult Parallel = explore(Mod, Opts);

  EXPECT_EQ(treeShape(Sequential.Stats), treeShape(Parallel.Stats)) << Label;
  EXPECT_EQ(errorSet(Sequential.Reports), errorSet(Parallel.Reports))
      << Label;
}

TEST(ParallelSearchTest, MatchesSequentialOnExamplePrograms) {
  for (const char *Name :
       {"figure2.mc", "lock_order_bug.mc", "bounded_buffer.mc",
        "resource_manager.mc"}) {
    std::string Source = readExample(Name);
    auto Mod = mustCompile(Source);
    ASSERT_TRUE(Mod) << Name;
    SearchOptions Opts;
    Opts.MaxDepth = 12;
    Opts.Jobs = 4;
    expectParallelMatchesSequential(*Mod, Opts, Name);
  }
}

TEST(ParallelSearchTest, MatchesSequentialWithoutReduction) {
  std::string Source = readExample("lock_order_bug.mc");
  auto Mod = mustCompile(Source);
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 12;
  Opts.Jobs = 4;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  expectParallelMatchesSequential(*Mod, Opts, "lock_order_bug.mc --no-por");
}

TEST(ParallelSearchTest, MatchesSequentialOnRandomPrograms) {
  for (uint64_t Seed : {7u, 21u, 1003u, 1017u}) {
    auto Mod = mustCompile(randomOpenProgram(Seed));
    ASSERT_TRUE(Mod) << "seed " << Seed;
    SearchOptions Opts;
    Opts.MaxDepth = 10;
    Opts.Jobs = 4;
    expectParallelMatchesSequential(*Mod, Opts,
                                    "seed " + std::to_string(Seed));
  }
}

TEST(ParallelSearchTest, ShallowSplitForcesWorkDonation) {
  // A split depth of 1 seeds far fewer items than workers, so progress
  // beyond the first items depends on the donation path re-splitting
  // subtrees onto the deque.
  auto Mod = mustCompile(randomOpenProgram(1003));
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 10;
  Opts.Jobs = 4;
  Opts.SplitDepth = 1;
  expectParallelMatchesSequential(*Mod, Opts, "split-depth 1");
}

TEST(ParallelSearchTest, SharedStateBudgetStopsAllWorkers) {
  auto Mod = mustCompile(randomOpenProgram(1003));
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 12;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  Opts.Jobs = 4;
  Opts.MaxStates = 50;

  SearchResult R = explore(*Mod, Opts);
  const SearchStats &Stats = R.Stats;
  EXPECT_FALSE(Stats.Completed);
  // The budget is a global atomic; each worker can overshoot by at most
  // the one state it counts between two stop-flag checks.
  EXPECT_GE(Stats.StatesVisited, 50u);
  EXPECT_LE(Stats.StatesVisited, 50u + Opts.Jobs);
}

TEST(ParallelSearchTest, ProgressMonitorSumsWorkerSlotsDuringRun) {
  // Without reduction, a tree of about 5 * 10^4 states.
  auto Mod = mustCompile(semGridProgram(4));
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 100;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  Opts.Jobs = 4;
  SearchResult Plain = explore(*Mod, Opts);

  // Every explorer stores its counters into its own progress slot while
  // the monitor thread sums the slots once a millisecond; under Tsan a
  // race between them fails this test. The progress lines themselves are
  // checked by ObservabilityTest.ProgressLinesAreWellFormed.
  Opts.ProgressIntervalSeconds = 0.001;
  SearchResult Observed = explore(*Mod, Opts);

  EXPECT_TRUE(Observed.Stats.Completed);
  EXPECT_EQ(treeShape(Plain.Stats), treeShape(Observed.Stats));
  EXPECT_EQ(errorSet(Plain.Reports), errorSet(Observed.Reports));
}

TEST(ParallelSearchTest, StopOnFirstErrorStopsParallelRun) {
  std::string Source = readExample("lock_order_bug.mc");
  auto Mod = mustCompile(Source);
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 16;
  Opts.Jobs = 4;
  Opts.StopOnFirstError = true;

  SearchResult R = explore(*Mod, Opts);
  EXPECT_GE(R.Stats.Deadlocks, 1u);
  EXPECT_GE(R.Reports.size(), 1u);
  EXPECT_FALSE(R.Stats.Completed);
}

TEST(ParallelSearchTest, NegativeTossBranchBoundIsReportedNotEnumerated) {
  // A malformed closed program: corrupt a TossBranch bound to a negative
  // value. Decision::optionCount() used to cast it straight to size_t,
  // wrapping into ~2^64 siblings; now the runtime reports it.
  CompileResult R = compile(figure2Source());
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  Module &Mod = *R.M;
  bool Corrupted = false;
  for (ProcCfg &Proc : Mod.Procs) {
    for (CfgNode &Node : Proc.Nodes) {
      if (Node.Kind == CfgNodeKind::TossBranch) {
        Node.TossBound = -2;
        Corrupted = true;
        break;
      }
    }
    if (Corrupted)
      break;
  }
  ASSERT_TRUE(Corrupted) << "closed figure2 should contain a toss branch";

  SearchOptions Opts;
  Opts.MaxDepth = 30;
  SearchResult Seq = explore(Mod, Opts);
  EXPECT_GE(Seq.Stats.RuntimeErrors, 1u);
  bool SawBadBound = false;
  for (const ErrorReport &Rep : Seq.Reports)
    if (Rep.Kind == ErrorReport::Type::RuntimeError &&
        Rep.Error.Kind == RunErrorKind::BadTossBound)
      SawBadBound = true;
  EXPECT_TRUE(SawBadBound);

  // And the parallel search agrees.
  SearchOptions Par = Opts;
  Par.Jobs = 2;
  expectParallelMatchesSequential(Mod, Par, "corrupted toss bound");
}

TEST(ParallelSearchTest, NegativeEnvDomainIsReportedNotEnumerated) {
  auto Mod = mustCompile(figure2Source()); // Open: env process argument.
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 20;
  Opts.Runtime.EnvDomainBound = -3;
  SearchStats Stats = explore(*Mod, Opts).Stats;
  EXPECT_TRUE(Stats.Completed);
  EXPECT_GE(Stats.RuntimeErrors, 1u);
  // The bogus domain must not multiply the search: one run, one report.
  EXPECT_EQ(Stats.Runs, 1u);
}

TEST(ParallelSearchTest, DroppedReportsAreCounted) {
  // Four toss outcomes, each violating the assertion: 4 reports offered.
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var x;
  x = VS_toss(3);
  VS_assert(x > 90);
  send(c, x);
}

process m = main();
)");
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxReports = 2;
  SearchResult R = explore(*Mod, Opts);
  EXPECT_EQ(R.Stats.AssertionViolations, 4u);
  EXPECT_EQ(R.Reports.size(), 2u);
  EXPECT_EQ(R.Stats.ReportsDropped, 2u);
  EXPECT_NE(R.Stats.str().find("reports-dropped=2"), std::string::npos);
}

} // namespace
