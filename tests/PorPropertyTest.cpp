//===- PorPropertyTest.cpp - POR soundness on random systems -----------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The partial-order reduction must preserve deadlock detection ([God96]):
// for randomly generated closed systems, the reduced search finds a
// deadlock iff the full search does. Also cross-checks the state-hashing
// ablation (which additionally preserves deadlock existence because
// deadlock states are never pruned before classification).
//
//===----------------------------------------------------------------------===//

#include "closing/Pipeline.h"
#include "explorer/Search.h"
#include "RandomProgram.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace closer;

namespace {

class PorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

SearchStats explore(const Module &Mod, bool Persistent, bool Sleep,
                    unsigned StateCacheBits = 0) {
  SearchOptions Opts;
  Opts.MaxDepth = 14;
  Opts.MaxRuns = 150000;
  Opts.UsePersistentSets = Persistent;
  Opts.UseSleepSets = Sleep;
  Opts.StateCacheBits = StateCacheBits;
  return closer::explore(Mod, Opts).Stats;
}

/// Closes the seed's program; null when the full search cannot finish in
/// budget (those seeds cannot give a reliable ground truth).
std::unique_ptr<Module> closedSystemForSeed(uint64_t Seed,
                                            SearchStats &FullStats) {
  CompileResult R = compile(randomOpenProgram(Seed));
  if (!R.ok())
    return nullptr;
  FullStats = explore(*R.M, false, false);
  if (!FullStats.Completed)
    return nullptr;
  return std::move(R.M);
}

TEST_P(PorPropertyTest, PersistentSleepPreservesDeadlockExistence) {
  SearchStats Full;
  auto Mod = closedSystemForSeed(GetParam(), Full);
  if (!Mod)
    GTEST_SKIP() << "ground-truth search did not complete for this seed";

  SearchStats Reduced = explore(*Mod, true, true);
  ASSERT_TRUE(Reduced.Completed)
      << "reduced search must be no larger than the full one";
  EXPECT_EQ(Full.Deadlocks > 0, Reduced.Deadlocks > 0)
      << "full=" << Full.str() << "\nreduced=" << Reduced.str();
  EXPECT_LE(Reduced.StatesVisited, Full.StatesVisited);
}

TEST_P(PorPropertyTest, SleepSetsAloneAreExact) {
  SearchStats Full;
  auto Mod = closedSystemForSeed(GetParam(), Full);
  if (!Mod)
    GTEST_SKIP() << "ground-truth search did not complete for this seed";

  SearchStats Slept = explore(*Mod, false, true);
  ASSERT_TRUE(Slept.Completed);
  EXPECT_EQ(Full.Deadlocks > 0, Slept.Deadlocks > 0);
  // Sleep sets also preserve assertion-violation existence: they only
  // skip transitions covered by a commuting permutation, and VS_assert
  // is independent of everything.
  EXPECT_EQ(Full.AssertionViolations > 0, Slept.AssertionViolations > 0);
}

TEST_P(PorPropertyTest, HashingPreservesDeadlockExistence) {
  SearchStats Full;
  auto Mod = closedSystemForSeed(GetParam(), Full);
  if (!Mod)
    GTEST_SKIP() << "ground-truth search did not complete for this seed";

  SearchStats Hashed = explore(*Mod, false, false, StateCache::DefaultBits);
  ASSERT_TRUE(Hashed.Completed);
  EXPECT_EQ(Full.Deadlocks > 0, Hashed.Deadlocks > 0);
  EXPECT_LE(Hashed.StatesVisited, Full.StatesVisited);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PorPropertyTest,
                         ::testing::Range<uint64_t>(100, 124));

} // namespace
