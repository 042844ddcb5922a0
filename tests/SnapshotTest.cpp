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
// statistics bit-identical between stateless and checkpointed modes, at
// one job and at four).
//
//===----------------------------------------------------------------------===//

#include "explorer/Search.h"
#include "runtime/System.h"

#include "RandomProgram.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace closer;

namespace {

/// A workload whose execution pushes and pops frames (helper call per
/// iteration) and mutates every communication-object kind (channel items,
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

/// A full snapshot of \p Sys, restorable anywhere: a light capture with
/// the trace materialized, as a donated work item ships it.
SystemSnapshot fullSnapshot(const System &Sys) {
  SystemSnapshot Light, Full;
  Sys.snapshotLightInto(Light);
  Sys.materializeTraceInto(Light, Full);
  return Full;
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
    Snaps.push_back(fullSnapshot(Sys));
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

  SystemSnapshot Initial = fullSnapshot(Sys);
  uint64_t InitialPrint = Sys.fingerprint();

  // Mutate every object kind: sends fill the channel, the consumer
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

TEST(SnapshotTest, ChannelFifoSurvivesStorageWrapAcrossRestore) {
  // The consumer asserts that it receives 1, 2, ..., 12 in order while the
  // schedule below moves the channel's items around its storage.
  auto Mod = mustCompile(R"(
chan c[6];

proc producer() {
  var i;
  for (i = 1; i <= 12; i = i + 1)
    send(c, i);
}

proc consumer() {
  var j;
  var v;
  for (j = 1; j <= 12; j = j + 1) {
    v = recv(c);
    VS_assert(v == j);
  }
}

process p = producer();
process q = consumer();
)");
  ASSERT_TRUE(Mod);
  ZeroChoiceProvider Zero;
  // Runs \p Steps transitions (all, when 0), preferring process \p First.
  auto Run = [&](System &S, int First, size_t Steps) {
    for (size_t N = 0; Steps == 0 || N != Steps; ++N) {
      std::vector<int> E = S.enabledProcesses();
      if (E.empty())
        return;
      int P = std::find(E.begin(), E.end(), First) != E.end() ? First
                                                              : E.front();
      ExecResult R = S.executeTransition(P, Zero);
      ASSERT_TRUE(R.ok());
      ASSERT_TRUE(R.Violations.empty()) << "FIFO order broken";
    }
  };

  System Sys(*Mod, {});
  // Consumer first: three items pass through one by one, so the channel is
  // empty with its front in the middle of the storage. Producer first: six
  // items fill it, wrapping around the end of the storage and growing it
  // while wrapped.
  Run(Sys, 1, 8);
  Run(Sys, 0, 8);
  SystemSnapshot Full = fullSnapshot(Sys);
  SystemSnapshot Light;
  Sys.snapshotLightInto(Light);
  const uint64_t Print = Sys.fingerprint();
  Run(Sys, 0, 0);
  const std::string Final = traceToString(Sys.trace());
  const uint64_t FinalPrint = Sys.fingerprint();
  EXPECT_EQ(Sys.classify(), GlobalStateKind::Termination);
  std::vector<int64_t> Received;
  for (const VisibleEvent &E : Sys.trace())
    if (E.Op == BuiltinKind::Recv)
      Received.push_back(E.Payload.asInt());
  std::vector<int64_t> Expected = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_EQ(Received, Expected);

  // Light snapshot, same System: rewinds and replays the same suffix.
  Sys.restore(Light);
  EXPECT_EQ(Sys.fingerprint(), Print);
  Run(Sys, 0, 0);
  EXPECT_EQ(traceToString(Sys.trace()), Final);
  EXPECT_EQ(Sys.fingerprint(), FinalPrint);

  // Full snapshot into a System whose own channel storage went through a
  // different history (producer first: the channel filled from the front).
  System Other(*Mod, {});
  Run(Other, 0, 9);
  Other.restore(Full);
  EXPECT_EQ(Other.fingerprint(), Print);
  Run(Other, 0, 0);
  EXPECT_EQ(traceToString(Other.trace()), Final);
  EXPECT_EQ(Other.fingerprint(), FinalPrint);
}

//===----------------------------------------------------------------------===//
// Search-level equivalence: checkpointed vs stateless
//===----------------------------------------------------------------------===//

void expectCheckpointedMatchesStateless(const Module &Mod,
                                        SearchOptions Opts,
                                        const std::string &Label) {
  Opts.MaxReports = 4096;
  Opts.CheckpointInterval = 0;
  SearchResult Stateless = explore(Mod, Opts);
  const SearchStats &Base = Stateless.Stats;

  for (size_t K : {size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
    SearchOptions CkptOpts = Opts;
    CkptOpts.CheckpointInterval = K;
    SearchResult Ckpt = explore(Mod, CkptOpts);
    const SearchStats &S = Ckpt.Stats;
    std::string Tag = Label + " K=" + std::to_string(K);
    EXPECT_EQ(treeShape(Base), treeShape(S)) << Tag;
    EXPECT_EQ(errorSet(Stateless.Reports), errorSet(Ckpt.Reports)) << Tag;
    EXPECT_EQ(Base.Runs, S.Runs) << Tag;
    // Executed-transition accounting stays exact in both modes.
    EXPECT_EQ(S.Transitions, S.TreeTransitions + S.TransitionsReplayed)
        << Tag;
  }

  // And the parallel search under checkpointing still partitions the tree
  // exactly.
  SearchOptions Par = Opts;
  Par.Jobs = 4;
  Par.CheckpointInterval = 2;
  SearchResult Parallel = explore(Mod, Par);
  EXPECT_EQ(treeShape(Base), treeShape(Parallel.Stats))
      << Label << " jobs=4 K=2";
  EXPECT_EQ(errorSet(Stateless.Reports), errorSet(Parallel.Reports))
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

  SearchStats Base = explore(*Mod, Opts).Stats;
  EXPECT_EQ(Base.TransitionsRestored, 0u);

  SearchOptions Ckpt = Opts;
  Ckpt.CheckpointInterval = 2;
  SearchStats S = explore(*Mod, Ckpt).Stats;

  EXPECT_EQ(treeShape(Base), treeShape(S));
  EXPECT_GT(S.TransitionsRestored, 0u);
  EXPECT_LT(S.TransitionsReplayed, Base.TransitionsReplayed);
  EXPECT_LT(S.Transitions, Base.Transitions);
  // Restores + replays together still cover every prefix transition the
  // stateless search had to re-execute.
  EXPECT_EQ(S.TransitionsReplayed + S.TransitionsRestored,
            Base.TransitionsReplayed);
}

} // namespace
