//===- SnapshotTest.cpp - System snapshot/restore and checkpointed search ----===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The checkpointed search is only sound if a restored System is
// indistinguishable from one that re-executed the same prefix from the
// initial state. These tests pin that down at the runtime level
// (fingerprint and trace equality across frame push/pop and
// communication-object mutation) and at the search level (tree-shaped
// statistics bit-identical between stateless and checkpointed modes, for
// the sequential and the parallel explorer).
//
//===----------------------------------------------------------------------===//

#include "explorer/ParallelSearch.h"
#include "runtime/System.h"

#include "RandomProgram.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace closer;

namespace {

/// A workload whose execution pushes and pops frames (helper call per
/// iteration) and mutates every communication-object kind (channel deque,
/// semaphore count, shared variable).
const char *snapshotWorkload() {
  return R"(
chan link[3];
sem gate(1);
shared box = 0;

proc doubleup(n) {
  var t = n * 2;
  return t + 1;
}

proc producer() {
  var i;
  var v;
  for (i = 0; i < 3; i = i + 1) {
    v = doubleup(i);
    send(link, v);
    write(box, v);
  }
}

proc consumer() {
  var j;
  var w;
  for (j = 0; j < 3; j = j + 1) {
    sem_wait(gate);
    w = recv(link);
    sem_signal(gate);
  }
}

process a = producer();
process b = consumer();
)";
}

int firstEnabled(const System &Sys) {
  std::vector<int> E = Sys.enabledProcesses();
  return E.empty() ? -1 : E.front();
}

TEST(SnapshotTest, RestoreMidRunEqualsFreshReplayOfThePrefix) {
  auto Mod = mustCompile(snapshotWorkload());
  ASSERT_TRUE(Mod);
  ZeroChoiceProvider Zero;

  // Walk a fixed deterministic schedule, recording a snapshot and the
  // observable state (fingerprint, trace, depth) at every global state.
  System Sys(*Mod, {});
  std::vector<SystemSnapshot> Snaps;
  std::vector<uint64_t> Prints;
  std::vector<std::string> Traces;
  for (;;) {
    Snaps.push_back(Sys.snapshot());
    Prints.push_back(Sys.fingerprint());
    Traces.push_back(traceToString(Sys.trace()));
    int P = firstEnabled(Sys);
    if (P < 0 || Sys.depth() >= 40)
      break;
    ASSERT_TRUE(Sys.executeTransition(P, Zero).ok());
  }
  ASSERT_GE(Snaps.size(), 10u) << "workload too shallow to be interesting";

  // A fresh System re-executing the same schedule passes through exactly
  // the recorded states — the baseline the snapshots must match.
  System Fresh(*Mod, {});
  Fresh.reset(Zero);
  for (size_t D = 0;; ++D) {
    ASSERT_LT(D, Prints.size());
    EXPECT_EQ(Fresh.fingerprint(), Prints[D]) << "depth " << D;
    EXPECT_EQ(traceToString(Fresh.trace()), Traces[D]) << "depth " << D;
    if (D + 1 == Prints.size())
      break;
    ASSERT_TRUE(Fresh.executeTransition(firstEnabled(Fresh), Zero).ok());
  }

  // Restoring any snapshot reproduces the recorded state...
  for (size_t D = 0; D != Snaps.size(); ++D) {
    Sys.restore(Snaps[D]);
    EXPECT_EQ(Sys.depth(), D) << "depth " << D;
    EXPECT_EQ(Sys.fingerprint(), Prints[D]) << "depth " << D;
    EXPECT_EQ(traceToString(Sys.trace()), Traces[D]) << "depth " << D;
  }

  // ...and a restored System resumes exactly like the original run did,
  // across the helper-frame pushes/pops and comm mutations that follow.
  size_t Mid = Snaps.size() / 2;
  Sys.restore(Snaps[Mid]);
  for (size_t D = Mid + 1; D != Snaps.size(); ++D) {
    ASSERT_TRUE(Sys.executeTransition(firstEnabled(Sys), Zero).ok());
    EXPECT_EQ(Sys.fingerprint(), Prints[D]) << "resumed depth " << D;
    EXPECT_EQ(traceToString(Sys.trace()), Traces[D]) << "resumed depth " << D;
  }
}

TEST(SnapshotTest, RestoreUndoesCommObjectMutation) {
  auto Mod = mustCompile(snapshotWorkload());
  ASSERT_TRUE(Mod);
  ZeroChoiceProvider Zero;
  System Sys(*Mod, {});

  SystemSnapshot Initial = Sys.snapshot();
  uint64_t InitialPrint = Sys.fingerprint();

  // Mutate every object kind: sends fill the channel deque, the consumer
  // decrements/increments the semaphore and pops the channel, writes hit
  // the shared variable.
  for (int Step = 0; Step != 6; ++Step) {
    int P = firstEnabled(Sys);
    ASSERT_GE(P, 0);
    ASSERT_TRUE(Sys.executeTransition(P, Zero).ok());
  }
  EXPECT_NE(Sys.fingerprint(), InitialPrint);

  Sys.restore(Initial);
  EXPECT_EQ(Sys.fingerprint(), InitialPrint);
  EXPECT_EQ(Sys.depth(), 0u);
  EXPECT_TRUE(Sys.trace().empty());
}

//===----------------------------------------------------------------------===//
// Search-level equivalence: checkpointed vs stateless
//===----------------------------------------------------------------------===//

/// The statistics that describe the search tree itself. Replay effort
/// (Transitions/TransitionsReplayed/TransitionsRestored) legitimately
/// differs between checkpoint intervals; everything else must not.
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

void expectCheckpointedMatchesStateless(const Module &Mod,
                                        SearchOptions Opts,
                                        const std::string &Label) {
  Opts.MaxReports = 4096;
  Opts.CheckpointInterval = 0;
  Explorer Stateless(Mod, Opts);
  SearchStats Base = Stateless.run();

  for (size_t K : {size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
    SearchOptions CkptOpts = Opts;
    CkptOpts.CheckpointInterval = K;
    Explorer Ckpt(Mod, CkptOpts);
    SearchStats S = Ckpt.run();
    std::string Tag = Label + " K=" + std::to_string(K);
    EXPECT_EQ(treeShape(Base), treeShape(S)) << Tag;
    EXPECT_EQ(errorSet(Stateless.reports()), errorSet(Ckpt.reports())) << Tag;
    EXPECT_EQ(Base.Runs, S.Runs) << Tag;
    // Executed-transition accounting stays exact in both modes.
    EXPECT_EQ(S.Transitions, S.TreeTransitions + S.TransitionsReplayed)
        << Tag;
  }

  // And the parallel explorer under checkpointing still partitions the
  // tree exactly.
  SearchOptions Par = Opts;
  Par.Jobs = 4;
  Par.CheckpointInterval = 2;
  SearchResult Parallel = explore(Mod, Par);
  EXPECT_EQ(treeShape(Base), treeShape(Parallel.Stats))
      << Label << " jobs=4 K=2";
  EXPECT_EQ(errorSet(Stateless.reports()), errorSet(Parallel.Reports))
      << Label << " jobs=4 K=2";
}

TEST(SnapshotTest, CheckpointedSearchMatchesStatelessOnExamples) {
  for (const char *Name :
       {"figure2.mc", "lock_order_bug.mc", "bounded_buffer.mc",
        "resource_manager.mc"}) {
    auto Mod = mustCompile(readExample(Name));
    ASSERT_TRUE(Mod) << Name;
    SearchOptions Opts;
    Opts.MaxDepth = 12;
    expectCheckpointedMatchesStateless(*Mod, Opts, Name);
  }
}

TEST(SnapshotTest, CheckpointedSearchMatchesStatelessOnRandomPrograms) {
  for (uint64_t Seed : {7u, 21u, 1003u, 1017u}) {
    auto Mod = mustCompile(randomOpenProgram(Seed));
    ASSERT_TRUE(Mod) << "seed " << Seed;
    SearchOptions Opts;
    Opts.MaxDepth = 10;
    expectCheckpointedMatchesStateless(*Mod, Opts,
                                       "seed " + std::to_string(Seed));
  }
}

TEST(SnapshotTest, CheckpointedSearchMatchesStatelessWithoutReduction) {
  auto Mod = mustCompile(readExample("lock_order_bug.mc"));
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 12;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  expectCheckpointedMatchesStateless(*Mod, Opts, "lock_order_bug --no-por");
}

TEST(SnapshotTest, CheckpointingSkipsReplayWorkOnDeepTrees) {
  // Deep paths are where stateless re-execution hurts: the checkpointed
  // search must visit the identical tree while executing far fewer
  // transitions, with the skipped prefix work showing up as restores.
  auto Mod = mustCompile(readExample("bounded_buffer.mc"));
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 14;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;

  Explorer Stateless(*Mod, Opts);
  SearchStats Base = Stateless.run();
  EXPECT_EQ(Base.TransitionsRestored, 0u);

  SearchOptions Ckpt = Opts;
  Ckpt.CheckpointInterval = 2;
  Explorer Checkpointed(*Mod, Ckpt);
  SearchStats S = Checkpointed.run();

  EXPECT_EQ(treeShape(Base), treeShape(S));
  EXPECT_GT(S.TransitionsRestored, 0u);
  EXPECT_LT(S.TransitionsReplayed, Base.TransitionsReplayed);
  EXPECT_LT(S.Transitions, Base.Transitions);
  // Restores + replays together still cover every prefix transition the
  // stateless search had to re-execute.
  EXPECT_EQ(S.TransitionsReplayed + S.TransitionsRestored,
            Base.TransitionsReplayed);
}

TEST(SnapshotTest, ExplorerRunIsRepeatableWithCheckpointing) {
  // run() must clear checkpoint state between invocations: a second run on
  // the same Explorer instance sees the same tree.
  auto Mod = mustCompile(readExample("figure2.mc"));
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 10;
  Opts.CheckpointInterval = 3;
  Explorer Ex(*Mod, Opts);
  SearchStats First = Ex.run();
  SearchStats Second = Ex.run();
  EXPECT_EQ(treeShape(First), treeShape(Second));
  EXPECT_EQ(First.Transitions, Second.Transitions);
  EXPECT_EQ(First.TransitionsRestored, Second.TransitionsRestored);
}

} // namespace
