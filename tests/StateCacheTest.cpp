//===- StateCacheTest.cpp - Concurrent state caching ------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The concurrent fingerprint table and the cached-search contract:
//  * StateCache insert/contains round-trips, exactly-once insertion under
//    concurrency, and the bounded-memory saturation path;
//  * explore() with --state-cache produces the same report set and the
//    same tree-shaped statistics for any job count (the determinism
//    contract of docs/ALGORITHM.md "Concurrent state caching");
//  * a saturated cache degrades to redundant work, never to a wrong or
//    non-terminating search;
//  * checkpointing composes with caching: the cache is consulted only at
//    fresh arrivals, so results are identical for any interval K;
//  * SearchOptions::validate() centralizes the option checks the CLI
//    enforces.
//
//===----------------------------------------------------------------------===//

#include "explorer/Search.h"
#include "explorer/StateCache.h"

#include "RandomProgram.h"
#include "TestUtil.h"
#include "closing/Pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

using namespace closer;

namespace {

// ---------------------------------------------------------------------------
// StateCache unit tests.
// ---------------------------------------------------------------------------

TEST(StateCacheTest, InsertThenPresentRoundTrip) {
  StateCache Cache(10);
  EXPECT_EQ(Cache.capacity(), 1u << 10);
  EXPECT_EQ(Cache.entries(), 0u);
  for (uint64_t I = 1; I <= 100; ++I) {
    EXPECT_FALSE(Cache.contains(I)) << I;
    EXPECT_EQ(Cache.insert(I), StateCache::Insert::Inserted) << I;
    EXPECT_TRUE(Cache.contains(I)) << I;
    EXPECT_EQ(Cache.insert(I), StateCache::Insert::Present) << I;
  }
  EXPECT_EQ(Cache.entries(), 100u);
}

TEST(StateCacheTest, ZeroFingerprintIsStorable) {
  // 0 marks an empty slot internally; the public interface must still
  // accept a fingerprint that happens to be 0.
  StateCache Cache(StateCache::MinBits);
  EXPECT_FALSE(Cache.contains(0));
  EXPECT_EQ(Cache.insert(0), StateCache::Insert::Inserted);
  EXPECT_TRUE(Cache.contains(0));
  EXPECT_EQ(Cache.insert(0), StateCache::Insert::Present);
}

TEST(StateCacheTest, BitsAreClampedToFloor) {
  StateCache Tiny(1);
  EXPECT_EQ(Tiny.capacity(), uint64_t{1} << StateCache::MinBits);
}

TEST(StateCacheTest, SaturationIsReportedNotWedged) {
  StateCache Cache(StateCache::MinBits); // 16 slots.
  uint64_t Inserted = 0, Saturated = 0;
  for (uint64_t I = 1; I <= 1000; ++I) {
    switch (Cache.insert(I * 0x9e3779b97f4a7c15ull)) {
    case StateCache::Insert::Inserted:
      ++Inserted;
      break;
    case StateCache::Insert::Saturated:
      ++Saturated;
      break;
    case StateCache::Insert::Present:
      FAIL() << "distinct keys reported Present";
    }
  }
  EXPECT_LE(Inserted, Cache.capacity());
  EXPECT_GT(Saturated, 0u);
  EXPECT_EQ(Inserted, Cache.entries());
  // Keys that did land keep answering Present.
  EXPECT_EQ(Cache.insert(0x9e3779b97f4a7c15ull), StateCache::Insert::Present);
}

TEST(StateCacheTest, ConcurrentInsertIsExactlyOnce) {
  // Four threads race the same key set; every key must be Inserted by
  // exactly one of them. This test doubles as the Tsan probe for the
  // lock-free CAS slots.
  constexpr uint64_t Keys = 20000;
  StateCache Cache(16); // 65536 slots: plenty, no saturation.
  std::atomic<uint64_t> TotalInserted{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&Cache, &TotalInserted] {
      uint64_t Mine = 0;
      for (uint64_t I = 1; I <= Keys; ++I)
        if (Cache.insert(I * 0x100000001b3ull) ==
            StateCache::Insert::Inserted)
          ++Mine;
      TotalInserted.fetch_add(Mine, std::memory_order_relaxed);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(TotalInserted.load(), Keys);
  EXPECT_EQ(Cache.entries(), Keys);
}

// ---------------------------------------------------------------------------
// The cached-search determinism contract.
// ---------------------------------------------------------------------------

/// The statistics that are deterministic under caching: with every state
/// expanded exactly once, arrivals and leaf classification depend only on
/// the state graph, not on traversal order or job count.
std::string cachedShape(const SearchStats &S) {
  std::string Out;
  Out += "states=" + std::to_string(S.StatesVisited);
  Out += " tree-transitions=" + std::to_string(S.TreeTransitions);
  Out += " deadlocks=" + std::to_string(S.Deadlocks);
  Out += " terminations=" + std::to_string(S.Terminations);
  Out += " assertion-violations=" + std::to_string(S.AssertionViolations);
  Out += " divergences=" + std::to_string(S.Divergences);
  Out += " runtime-errors=" + std::to_string(S.RuntimeErrors);
  Out += " cache-inserts=" + std::to_string(S.CacheInserts);
  Out += " cache-hits=" + std::to_string(S.CacheHits);
  Out += S.Completed ? " complete" : " stopped";
  return Out;
}

void expectCachedParallelMatchesSequential(const Module &Mod,
                                           SearchOptions Opts,
                                           const std::string &Label) {
  Opts.MaxReports = 4096;
  Opts.StateCacheBits = 18;

  SearchOptions Seq = Opts;
  Seq.Jobs = 1;
  SearchResult A = explore(Mod, Seq);

  Opts.Jobs = 4;
  SearchResult B = explore(Mod, Opts);

  // Preconditions of the determinism contract: no truncation, no
  // saturation, both runs exhausted the (cached) state graph.
  ASSERT_EQ(A.Stats.DepthLimitHits, 0u) << Label;
  ASSERT_EQ(B.Stats.DepthLimitHits, 0u) << Label;
  ASSERT_EQ(A.Stats.CacheSaturated, 0u) << Label;
  ASSERT_EQ(B.Stats.CacheSaturated, 0u) << Label;
  ASSERT_TRUE(A.Stats.Completed && B.Stats.Completed) << Label;

  EXPECT_EQ(cachedShape(A.Stats), cachedShape(B.Stats)) << Label;
  EXPECT_EQ(stateErrorSet(A.Reports), stateErrorSet(B.Reports)) << Label;
  // The effective options self-describe the normalization explore()
  // applied: sleep sets off, the bit count folded in.
  EXPECT_FALSE(B.Options.UseSleepSets) << Label;
  EXPECT_EQ(B.Options.StateCacheBits, 18u) << Label;
}

TEST(StateCacheTest, CachedParallelMatchesSequentialOnExamples) {
  for (const char *Name :
       {"figure2.mc", "lock_order_bug.mc", "bounded_buffer.mc",
        "resource_manager.mc"}) {
    auto Mod = mustCompile(readExample(Name));
    ASSERT_TRUE(Mod) << Name;
    SearchOptions Opts;
    Opts.MaxDepth = 400; // Cached DFS paths snake; depth must not truncate.
    Opts.CheckpointInterval = 8;
    expectCachedParallelMatchesSequential(*Mod, Opts, Name);
  }
}

TEST(StateCacheTest, CachedParallelMatchesSequentialOnRandomPrograms) {
  for (uint64_t Seed : {7u, 21u, 1003u}) {
    auto Mod = mustCompile(randomOpenProgram(Seed));
    ASSERT_TRUE(Mod) << Seed;
    SearchOptions Opts;
    Opts.MaxDepth = 400;
    Opts.CheckpointInterval = 8;
    expectCachedParallelMatchesSequential(*Mod, Opts,
                                          "seed " + std::to_string(Seed));
  }
}

TEST(StateCacheTest, ParallelCachedRunIsNotForcedSequential) {
  auto Mod = mustCompile(readExample("bounded_buffer.mc"));
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 400;
  Opts.Jobs = 4;
  Opts.StateCacheBits = 18;
  SearchResult R = explore(*Mod, Opts);
  // Seeding pass + one entry per worker: the cached run really ran on the
  // parallel backend (a sequential fallback would report 1 entry).
  EXPECT_EQ(R.Workers.size(), 5u);
  EXPECT_TRUE(R.Stats.Completed);
  EXPECT_GT(R.Stats.CacheInserts, 0u);
}

TEST(StateCacheTest, SaturatedCacheStaysSoundAndTerminates) {
  auto Mod = mustCompile(readExample("lock_order_bug.mc"));
  ASSERT_TRUE(Mod);

  SearchOptions Base;
  Base.MaxDepth = 16;
  Base.MaxReports = 4096;
  SearchResult Uncached = explore(*Mod, Base);
  ASSERT_TRUE(Uncached.Stats.Completed);
  ASSERT_GT(Uncached.Stats.Deadlocks, 0u);

  for (size_t Jobs : {size_t{1}, size_t{4}}) {
    SearchOptions Opts = Base;
    Opts.Jobs = Jobs;
    Opts.StateCacheBits = StateCache::MinBits; // 16 slots: saturates fast.
    SearchResult R = explore(*Mod, Opts);
    std::string Tag = "jobs=" + std::to_string(Jobs);
    // Saturation means redundant re-exploration, never lost coverage: the
    // search still terminates and still finds the deadlock.
    EXPECT_TRUE(R.Stats.Completed) << Tag;
    EXPECT_GT(R.Stats.CacheSaturated, 0u) << Tag;
    EXPECT_GT(R.Stats.Deadlocks, 0u) << Tag;
    EXPECT_FALSE(R.Reports.empty()) << Tag;
  }
}

TEST(StateCacheTest, CheckpointIntervalComposesWithCaching) {
  // The cache is consulted only at fresh arrivals; checkpoint restores and
  // replays pass through visited prefixes without touching it, so every
  // interval K — including pure stateless K=0 — explores the same tree
  // and performs the same cache traffic.
  auto Mod = mustCompile(readExample("bounded_buffer.mc"));
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 400;
  Opts.MaxReports = 4096;
  Opts.StateCacheBits = 18;
  Opts.CheckpointInterval = 0;
  SearchResult Base = explore(*Mod, Opts);
  ASSERT_TRUE(Base.Stats.Completed);
  ASSERT_EQ(Base.Stats.DepthLimitHits, 0u);

  for (size_t K : {size_t{3}, size_t{8}}) {
    SearchOptions Ck = Opts;
    Ck.CheckpointInterval = K;
    SearchResult R = explore(*Mod, Ck);
    std::string Tag = "K=" + std::to_string(K);
    EXPECT_EQ(cachedShape(Base.Stats), cachedShape(R.Stats)) << Tag;
    EXPECT_EQ(stateErrorSet(Base.Reports), stateErrorSet(R.Reports)) << Tag;
    EXPECT_EQ(Base.Stats.Runs, R.Stats.Runs) << Tag;
  }
}

// ---------------------------------------------------------------------------
// SearchOptions::validate().
// ---------------------------------------------------------------------------

size_t errorCount(const std::vector<Diagnostic> &Ds) {
  size_t N = 0;
  for (const Diagnostic &D : Ds)
    N += D.Kind == DiagKind::Error;
  return N;
}

TEST(SearchOptionsValidateTest, DefaultsAreClean) {
  SearchOptions Opts;
  EXPECT_TRUE(Opts.validate().empty());
}

TEST(SearchOptionsValidateTest, RejectsWrappedNegativeValues) {
  // A CLI `--depth -3` arrives as a huge unsigned value; validate names
  // the mistake instead of searching forever.
  SearchOptions Opts;
  Opts.MaxDepth = static_cast<size_t>(-3);
  EXPECT_EQ(errorCount(Opts.validate()), 1u);

  SearchOptions Zero;
  Zero.MaxDepth = 0;
  EXPECT_EQ(errorCount(Zero.validate()), 1u);

  SearchOptions Jobs;
  Jobs.Jobs = 0; // Auto: one worker per hardware thread — valid.
  EXPECT_EQ(errorCount(Jobs.validate()), 0u);
  Jobs.Jobs = static_cast<size_t>(-2); // A CLI `--jobs -2`, wrapped.
  EXPECT_EQ(errorCount(Jobs.validate()), 1u);

  SearchOptions Ckpt;
  Ckpt.CheckpointInterval = static_cast<size_t>(-1);
  EXPECT_EQ(errorCount(Ckpt.validate()), 1u);
}

TEST(SearchOptionsValidateTest, RejectsOutOfRangeCacheBits) {
  SearchOptions Opts;
  Opts.StateCacheBits = StateCache::MaxBits + 1;
  EXPECT_EQ(errorCount(Opts.validate()), 1u);
  Opts.StateCacheBits = StateCache::MinBits - 1;
  EXPECT_EQ(errorCount(Opts.validate()), 1u);
  Opts.StateCacheBits = StateCache::DefaultBits;
  EXPECT_EQ(errorCount(Opts.validate()), 0u);
}

TEST(SearchOptionsValidateTest, WarnsOnSleepSetsUnderCaching) {
  SearchOptions Opts;
  Opts.StateCacheBits = StateCache::DefaultBits;
  ASSERT_TRUE(Opts.UseSleepSets); // Library default.
  std::vector<Diagnostic> Ds = Opts.validate();
  EXPECT_EQ(errorCount(Ds), 0u);
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Kind, DiagKind::Warning);

  Opts.UseSleepSets = false;
  EXPECT_TRUE(Opts.validate().empty());
}

} // namespace
