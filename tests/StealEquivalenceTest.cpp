//===- StealEquivalenceTest.cpp - Work-stealing vs sequential equivalence --===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The scheduler-layer contract: moving exploration onto per-worker
// Chase–Lev deques with targeted wakeups must not change which tree gets
// explored. Every tree-shaped statistic and the error-report set must be
// bit-identical to the sequential explorer's across the full configuration
// matrix — job count x checkpoint interval x state cache x execution
// engine — because the work items partition the search tree exactly and
// none of those knobs may interact with the partition.
//
// The cached configurations carry one caveat the uncached ones do not:
// cross-path pruning makes the visit *order* worker-dependent, so the tree
// shape is only deterministic when the run completes without depth-limit
// truncation (a state first reached near the horizon in one order can be
// cache-pruned below it in another). The matrix programs are chosen and
// asserted to stay inside that regime.
//
// Also runs under ThreadSanitizer as part of the sanitizer gate.
//
//===----------------------------------------------------------------------===//

#include "explorer/ParallelSearch.h"

#include "RandomProgram.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace closer;

namespace {

/// The tree-shaped statistics (not replay effort, not the new scheduler
/// counters — Steals/Wakeups/ArenaBytes/PoolFresh legitimately vary with
/// scheduling and are deliberately absent here).
std::string treeShape(const SearchStats &S) {
  std::string Out;
  Out += "states=" + std::to_string(S.StatesVisited);
  Out += " tree-transitions=" + std::to_string(S.TreeTransitions);
  Out += " deadlocks=" + std::to_string(S.Deadlocks);
  Out += " terminations=" + std::to_string(S.Terminations);
  Out += " assertion-violations=" + std::to_string(S.AssertionViolations);
  Out += " divergences=" + std::to_string(S.Divergences);
  Out += " runtime-errors=" + std::to_string(S.RuntimeErrors);
  Out += " depth-limit-hits=" + std::to_string(S.DepthLimitHits);
  Out += " sleep-prunes=" + std::to_string(S.SleepSetPrunes);
  Out += " covered=" + std::to_string(S.VisibleOpsCovered);
  Out += S.Completed ? " complete" : " stopped";
  return Out;
}

std::vector<std::string> errorSet(const std::vector<ErrorReport> &Reports) {
  std::vector<std::string> Out;
  for (const ErrorReport &R : Reports)
    Out.push_back(std::to_string(static_cast<int>(R.Kind)) + ":" +
                  replayToString(R.Choices));
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Report identity for cached runs: the erroneous state plus the error
/// details. A cached state is expanded by whichever worker inserts its
/// fingerprint first, so the representative trace varies with scheduling
/// while the (state, error) set does not — the same identity
/// StateCacheTest pins for the cache layer itself.
std::vector<std::string> stateErrorSet(const std::vector<ErrorReport> &Rs) {
  std::vector<std::string> Out;
  for (const ErrorReport &R : Rs)
    Out.push_back(std::to_string(static_cast<int>(R.Kind)) + ":" +
                  std::to_string(R.StateFp) + ":" +
                  std::to_string(static_cast<int>(R.Error.Kind)) + ":" +
                  std::to_string(R.Process));
  std::sort(Out.begin(), Out.end());
  return Out;
}

struct MatrixProgram {
  const char *Label;
  std::unique_ptr<Module> Mod;
  size_t MaxDepth;
};

std::vector<MatrixProgram> matrixPrograms() {
  std::vector<MatrixProgram> Out;
  {
    auto Mod = mustCompile(readExample("figure2.mc"));
    EXPECT_TRUE(Mod);
    if (Mod)
      Out.push_back({"figure2.mc", std::move(Mod), 12});
  }
  {
    auto Mod = mustCompile(randomOpenProgram(1003));
    EXPECT_TRUE(Mod);
    if (Mod)
      Out.push_back({"random-1003", std::move(Mod), 10});
  }
  return Out;
}

/// One cell of the matrix: run sequentially and with \p Jobs workers,
/// demand identical tree shape and report set.
void checkCell(const MatrixProgram &P, size_t Jobs, size_t Ckpt,
               bool Cached, ExecMode Exec) {
  std::string Label = std::string(P.Label) + " j" + std::to_string(Jobs) +
                      " ckpt" + std::to_string(Ckpt) +
                      (Cached ? " cache" : " nocache") +
                      (Exec == ExecMode::Vm ? " vm" : " interp");
  SearchOptions Opts;
  Opts.MaxDepth = P.MaxDepth;
  Opts.MaxReports = 4096;
  Opts.CheckpointInterval = Ckpt;
  Opts.Exec = Exec;
  if (Cached)
    Opts.StateCacheBits = 14;

  SearchOptions Seq = Opts;
  Seq.Jobs = 1;
  Explorer Sequential(*P.Mod, Seq);
  SearchStats SeqStats = Sequential.run();

  if (Cached) {
    // The determinism precondition for cached runs (see file comment). If
    // this trips, the matrix program outgrew its depth bound — raise it.
    ASSERT_TRUE(SeqStats.Completed) << Label;
    ASSERT_EQ(SeqStats.DepthLimitHits, 0u) << Label;
    ASSERT_EQ(SeqStats.CacheSaturated, 0u) << Label;
  }

  SearchOptions Par = Opts;
  Par.Jobs = Jobs;
  SearchResult Parallel = explore(*P.Mod, Par);

  EXPECT_EQ(treeShape(SeqStats), treeShape(Parallel.Stats)) << Label;
  if (Cached)
    EXPECT_EQ(stateErrorSet(Sequential.reports()),
              stateErrorSet(Parallel.Reports))
        << Label;
  else
    EXPECT_EQ(errorSet(Sequential.reports()), errorSet(Parallel.Reports))
        << Label;
}

TEST(StealEquivalenceTest, FullConfigurationMatrix) {
  std::vector<MatrixProgram> Programs = matrixPrograms();
  ASSERT_FALSE(Programs.empty());
  for (const MatrixProgram &P : Programs)
    for (size_t Jobs : {size_t{1}, size_t{2}, size_t{4}})
      for (size_t Ckpt : {size_t{0}, size_t{3}})
        for (bool Cached : {false, true})
          for (ExecMode Exec : {ExecMode::Interp, ExecMode::Vm})
            checkCell(P, Jobs, Ckpt, Cached, Exec);
}

TEST(StealEquivalenceTest, TerminationUnderHeavyDonation) {
  // Split depth 1 seeds one or two parcels for eight workers, so almost
  // every parcel the workers process arrives via donate() + targeted
  // wakeup while the rest of the pool is parked. Any flaw in the
  // Live-parcel termination protocol (a drained declaration racing a
  // donation, or a missed wakeup leaving a sleeper parked forever) shows
  // up here as a hang or a short tree. Repeat to give the races room.
  auto Mod = mustCompile(randomOpenProgram(1003));
  ASSERT_TRUE(Mod);

  SearchOptions Seq;
  Seq.MaxDepth = 10;
  Seq.MaxReports = 4096;
  Seq.Jobs = 1;
  Explorer Sequential(*Mod, Seq);
  SearchStats SeqStats = Sequential.run();
  std::string Want = treeShape(SeqStats);

  for (int Round = 0; Round != 20; ++Round) {
    SearchOptions Opts = Seq;
    Opts.Jobs = 8;
    Opts.SplitDepth = 1;
    SearchResult R = explore(*Mod, Opts);
    ASSERT_EQ(Want, treeShape(R.Stats)) << "round " << Round;
    ASSERT_EQ(errorSet(Sequential.reports()), errorSet(R.Reports))
        << "round " << Round;
  }
}

TEST(StealEquivalenceTest, SchedulerCountersAreObservedNotInvented) {
  // Sanity on the new counters: a sequential run reports no steals or
  // wakeups; a donation-heavy parallel run still sums to the same tree.
  auto Mod = mustCompile(randomOpenProgram(7));
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 10;
  Opts.MaxReports = 4096;
  Opts.Jobs = 1;
  SearchResult Seq = explore(*Mod, Opts);
  EXPECT_EQ(Seq.Stats.Steals, 0u);
  EXPECT_EQ(Seq.Stats.Wakeups, 0u);

  Opts.Jobs = 4;
  Opts.SplitDepth = 1;
  SearchResult Par = explore(*Mod, Opts);
  EXPECT_EQ(treeShape(Seq.Stats), treeShape(Par.Stats));
  // Steals/wakeups may be zero on a single-core box (workers rarely
  // overlap), so only the sequential side has a hard expectation.
}

} // namespace
