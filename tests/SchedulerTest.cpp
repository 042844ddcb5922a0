//===- SchedulerTest.cpp - The --jobs N work pool -------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
// Unit and stress tests for the exploration work pool: claim order (an
// owner takes its newest parcel, a thief the victim's oldest, scanning
// from the next worker), donation trees consumed exactly once across
// threads, drain-based termination, stop delivery to parked workers and
// the donation-throttle hint. The whole file also runs under
// ThreadSanitizer as part of the Tsan gate (tests/CMakeLists.txt).
//
//===----------------------------------------------------------------------===//

#include "explorer/Scheduler.h"

#include "gtest/gtest.h"

#include <atomic>
#include <thread>
#include <vector>

using namespace closer;
using namespace closer::sched;

namespace {

//===----------------------------------------------------------------------===//
// Claim order
//===----------------------------------------------------------------------===//

/// Claims one parcel as worker \p W. Callers queue one first, so next()
/// must return it without parking.
int claimAs(Scheduler<int> &S, int W) {
  int Out = -1;
  EXPECT_TRUE(S.next(W, Out));
  return Out;
}

/// Retires \p N claimed parcels; the pool must then be drained.
void finishAndExpectDrained(Scheduler<int> &S, int N) {
  for (int I = 0; I != N; ++I)
    S.finishItem();
  int Item;
  EXPECT_FALSE(S.next(0, Item)) << "every parcel finished: drained";
}

TEST(SchedulerTest, OwnerClaimsItsNewestParcel) {
  Scheduler<int> S(2);
  for (int V : {1, 2, 3})
    S.seed(0, V);
  EXPECT_EQ(claimAs(S, 0), 3);
  EXPECT_EQ(claimAs(S, 0), 2);
  EXPECT_EQ(claimAs(S, 0), 1);
  EXPECT_EQ(S.counters(0).Steals, 0u) << "own-deque claims are not steals";
  finishAndExpectDrained(S, 3);
}

TEST(SchedulerTest, ThiefTakesTheVictimsOldestParcel) {
  Scheduler<int> S(2);
  S.seed(0, 1);
  S.seed(0, 2);
  EXPECT_EQ(claimAs(S, 1), 1) << "a thief takes the oldest parcel";
  EXPECT_EQ(claimAs(S, 0), 2);
  EXPECT_EQ(S.counters(1).Steals, 1u);
  EXPECT_EQ(S.counters(0).Steals, 0u);
  finishAndExpectDrained(S, 2);
}

TEST(SchedulerTest, ThiefScansFromTheNextWorker) {
  // Worker 1 owns nothing; workers 2 and 0 hold parcels. The scan starts
  // at W+1, so worker 1 empties worker 2 before it wraps to worker 0.
  Scheduler<int> S(3);
  S.seed(0, 10);
  S.seed(2, 20);
  S.seed(2, 21);
  EXPECT_EQ(claimAs(S, 1), 20);
  EXPECT_EQ(claimAs(S, 1), 21);
  EXPECT_EQ(claimAs(S, 1), 10);
  EXPECT_EQ(S.counters(1).Steals, 3u);
  finishAndExpectDrained(S, 3);
}

TEST(SchedulerTest, InterleavedOwnerAndThiefClaims) {
  // Worker 1 steals the only parcel and donates two children to its own
  // deque while processing it: it claims the newer child back, and worker
  // 0 steals the older one.
  Scheduler<int> S(2);
  S.seed(0, 0);
  EXPECT_EQ(claimAs(S, 1), 0);
  S.donate(1, 1);
  S.donate(1, 2);
  EXPECT_EQ(claimAs(S, 1), 2);
  EXPECT_EQ(claimAs(S, 0), 1);
  EXPECT_EQ(S.counters(0).Steals, 1u);
  EXPECT_EQ(S.counters(1).Steals, 1u);
  EXPECT_EQ(S.counters(0).Wakeups + S.counters(1).Wakeups, 0u)
      << "nobody parked";
  finishAndExpectDrained(S, 3);
}

//===----------------------------------------------------------------------===//
// Concurrency: conservation, termination, stop
//===----------------------------------------------------------------------===//

/// Donation tree: each seeded item spawns children via donate() until a
/// depth bound. Every item must be consumed exactly once, across any number
/// of workers, and the run must terminate (drain detection) without a stop.
void runDonationTree(int NumWorkers, int Seeds, int Fanout, int Depth) {
  struct Node {
    int Depth = 0;
    int Id = 0;
  };
  // Total nodes: Seeds * (Fanout^0 + ... + Fanout^Depth) per seed chain.
  Scheduler<Node> S(NumWorkers);
  std::atomic<int> NextId{Seeds};
  int Total = 0;
  {
    int PerSeed = 0, Level = 1;
    for (int D = 0; D <= Depth; ++D) {
      PerSeed += Level;
      Level *= Fanout;
    }
    Total = Seeds * PerSeed;
  }
  std::vector<std::atomic<int>> Consumed(static_cast<size_t>(Total));
  for (auto &C : Consumed)
    C.store(0, std::memory_order_relaxed);

  for (int I = 0; I != Seeds; ++I)
    S.seed(I % NumWorkers, Node{0, I});

  std::vector<std::thread> Threads;
  for (int W = 0; W != NumWorkers; ++W)
    Threads.emplace_back([&, W] {
      Node N;
      while (S.next(W, N)) {
        Consumed[static_cast<size_t>(N.Id)].fetch_add(
            1, std::memory_order_relaxed);
        if (N.Depth < Depth)
          for (int C = 0; C != Fanout; ++C)
            S.donate(W, Node{N.Depth + 1,
                             NextId.fetch_add(1, std::memory_order_relaxed)});
        S.finishItem();
      }
    });
  for (std::thread &T : Threads)
    T.join();

  ASSERT_EQ(NextId.load(), Total) << "id allocation mismatch";
  for (int I = 0; I != Total; ++I)
    ASSERT_EQ(Consumed[static_cast<size_t>(I)].load(), 1)
        << "item " << I << " consumed a wrong number of times";
  EXPECT_TRUE(S.drainRemaining().empty());
}

TEST(SchedulerTest, DonationTreeSingleWorker) { runDonationTree(1, 3, 2, 6); }

TEST(SchedulerTest, DonationTreeTwoWorkers) { runDonationTree(2, 4, 3, 5); }

TEST(SchedulerTest, DonationTreeFourWorkers) { runDonationTree(4, 8, 3, 5); }

TEST(SchedulerTest, EmptySeedDrainsImmediately) {
  Scheduler<int> S(3);
  std::vector<std::thread> Threads;
  std::atomic<int> Claims{0};
  for (int W = 0; W != 3; ++W)
    Threads.emplace_back([&, W] {
      int Item;
      while (S.next(W, Item))
        Claims.fetch_add(1);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Claims.load(), 0);
}

TEST(SchedulerTest, StopWakesAllParkedWorkers) {
  // Workers park on a pool that is empty but NOT drained (the main thread
  // holds one live parcel, unfinished); requestStop must wake and release
  // all of them.
  Scheduler<int> S(3);
  S.seed(0, 1);
  int Held;
  ASSERT_TRUE(S.next(0, Held)); // Main claims the only parcel; Live stays 1.

  std::vector<std::thread> Threads;
  std::atomic<int> Exited{0};
  for (int W = 1; W != 3; ++W)
    Threads.emplace_back([&, W] {
      int Item;
      while (S.next(W, Item))
        S.finishItem();
      Exited.fetch_add(1);
    });
  // Stop only once both workers are observably parked, so the stop is
  // what wakes them (not something they see before ever sleeping).
  while (S.parkedHint() != 2)
    std::this_thread::yield();
  S.requestStop();
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Exited.load(), 2);
  for (int W = 1; W != 3; ++W)
    EXPECT_EQ(S.counters(W).Wakeups, 1u) << "worker " << W;
  EXPECT_EQ(S.parkedHint(), 0);
  int Item;
  EXPECT_FALSE(S.next(0, Item)) << "a live parcel does not outlast a stop";
}

TEST(SchedulerTest, DonationAfterStopIsDrainedNotLost) {
  // Satellite-6 regression: a donation racing a stop must land somewhere
  // retrievable — the old shared queue silently dropped pushes after its
  // Drained flag flipped. Here: stop first, donate after; the parcel must
  // come back from drainRemaining() so an interrupted run can report the
  // abandoned subtree in its resume prefixes.
  Scheduler<int> S(2);
  S.seed(0, 7);
  int Held;
  ASSERT_TRUE(S.next(0, Held));
  S.requestStop();
  S.donate(0, 99); // Donor had not yet observed the stop.
  S.finishItem();
  int Dummy;
  EXPECT_FALSE(S.next(1, Dummy)) << "stop must win over queued work";
  std::vector<int> Left = S.drainRemaining();
  ASSERT_EQ(Left.size(), 1u);
  EXPECT_EQ(Left[0], 99);
}

TEST(SchedulerTest, WantDonationTracksIdleWorkers) {
  Scheduler<int> S(2);
  EXPECT_FALSE(S.wantDonation()) << "nobody idle, nothing wanted";
  // One worker parks (scheduler empty but not drained: hold a live item).
  S.seed(0, 1);
  int Held;
  ASSERT_TRUE(S.next(0, Held));
  std::thread Sleeper([&] {
    int Item;
    while (S.next(1, Item))
      S.finishItem();
  });
  // Wait for the sleeper to park, then the busy worker should want to
  // donate; after donating, demand is covered.
  while (!S.wantDonation())
    std::this_thread::yield();
  S.donate(0, 2);
  S.finishItem();
  Sleeper.join();
}

} // namespace
