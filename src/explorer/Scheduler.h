//===- Scheduler.h - Work pool for subtree parcels --------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `--jobs N` work pool: one deque of parcels per worker, all behind one
/// mutex and one condition variable. Workers trade whole subtrees, about one
/// pool event (claim, steal, park) per hundred-odd explored states, so the
/// lock costs nothing measurable and keeps every step below plainly atomic.
///
///  * The owner claims its newest parcel (the hottest subtree); a thief
///    scans the other deques from W+1 and takes the oldest parcel of the
///    first non-empty one (the largest, coldest subtree).
///  * Idle workers wait on the condition variable. A donation that finds a
///    sleeper does one notify_one and takes it off the parked count at
///    once; notify_all happens only when the run drains or stops.
///  * Live counts parcels seeded or donated and not yet *finished* (a
///    claimed parcel can still donate children), so 0 means the tree is
///    exhausted.
///
/// Parcels stay individually heap-allocated: the lock guards a pointer
/// move, and the parcel itself moves outside it.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_EXPLORER_SCHEDULER_H
#define CLOSER_EXPLORER_SCHEDULER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace closer {
namespace sched {

/// Per-worker traffic, written by its owner under the pool lock.
struct WorkerCounters {
  uint64_t Steals = 0;  ///< Parcels taken from another worker's deque.
  uint64_t Wakeups = 0; ///< Returns from a park.
};

/// Work pool over value-type work items. One instance per parallel run;
/// worker threads are identified by their index [0, N).
template <typename Item> class Scheduler {
public:
  explicit Scheduler(int N) : Workers(static_cast<size_t>(N)) {}
  Scheduler(const Scheduler &) = delete; // Worker threads hold its address.
  Scheduler &operator=(const Scheduler &) = delete;

  /// Pre-run seeding: place \p I on worker \p W's deque (a donation that
  /// wakes no one, since nobody parks before the workers start).
  void seed(int W, Item I) { donate(W, std::move(I)); }

  /// Worker \p W publishes a parcel on its own deque and wakes one sleeper,
  /// if there is one. A donation racing a stop still lands on the deque,
  /// where drainRemaining() finds it.
  void donate(int W, Item I) {
    auto P = std::make_unique<Item>(std::move(I));
    std::unique_lock<std::mutex> Lock(M);
    ++Live;
    at(W).Queue.push_back(std::move(P));
    Unclaimed.fetch_add(1, std::memory_order_relaxed);
    if (Parked.load(std::memory_order_relaxed) == 0)
      return;
    Parked.fetch_sub(1, std::memory_order_relaxed);
    ++Wakes;
    Lock.unlock();
    CV.notify_one();
  }

  /// Cheap hint polled by busy workers every backtrack: donate only while
  /// more workers are parked than parcels are queued. Stale reads merely
  /// add or delay a donation; they never affect which states get explored.
  bool wantDonation() const {
    return parkedHint() > Unclaimed.load(std::memory_order_relaxed);
  }

  /// Workers parked and not yet handed a wakeup (racy outside the lock).
  int64_t parkedHint() const { return Parked.load(std::memory_order_relaxed); }

  /// Worker \p W's claim loop: its own newest parcel, else a stolen one,
  /// else park. Returns false when the run is over (stop requested, or
  /// every parcel fully processed). Every true return must be matched by a
  /// finishItem() call once the parcel's subtree is exhausted (or
  /// abandoned on stop). A stop wins over queued parcels.
  bool next(int W, Item &Out) {
    std::unique_lock<std::mutex> Lock(M);
    std::unique_ptr<Item> P;
    while (!Stop && Live != 0 && !(P = claim(W))) {
      Parked.fetch_add(1, std::memory_order_relaxed);
      CV.wait(Lock, [this] { return Wakes > 0 || Stop || Live == 0; });
      // A donor that granted a wakeup already took one sleeper off the
      // parked count; otherwise (drain, stop) this worker leaves it.
      if (Wakes > 0)
        --Wakes;
      else
        Parked.fetch_sub(1, std::memory_order_relaxed);
      ++at(W).Ctr.Wakeups;
    }
    if (!P)
      return false;
    Lock.unlock();
    Out = std::move(*P);
    return true;
  }

  /// The parcel claimed by the last next() is done (exhausted, or abandoned
  /// under a stop). Retiring the last live parcel drains the run.
  void finishItem() {
    std::unique_lock<std::mutex> Lock(M);
    if (--Live != 0)
      return;
    Lock.unlock();
    CV.notify_all();
  }

  /// Cooperative stop: next() returns false from now on. Idempotent.
  void requestStop() {
    std::unique_lock<std::mutex> Lock(M);
    Stop = true;
    Lock.unlock();
    CV.notify_all();
  }

  /// Racy queued-parcel count for the progress monitor.
  size_t queuedHint() const {
    return static_cast<size_t>(Unclaimed.load(std::memory_order_relaxed));
  }

  /// After the worker threads have joined: the parcels nobody claimed —
  /// the unexplored subtrees an interrupted run leaves behind.
  std::vector<Item> drainRemaining() {
    std::lock_guard<std::mutex> Lock(M);
    std::vector<Item> Out;
    for (PerWorker &Wk : Workers) {
      for (std::unique_ptr<Item> &P : Wk.Queue)
        Out.push_back(std::move(*P));
      Wk.Queue.clear();
    }
    Unclaimed.store(0, std::memory_order_relaxed);
    return Out;
  }

  /// Worker \p W's traffic; read by W itself or after the join.
  const WorkerCounters &counters(int W) const {
    return Workers[static_cast<size_t>(W)].Ctr;
  }

private:
  struct PerWorker {
    std::deque<std::unique_ptr<Item>> Queue;
    WorkerCounters Ctr;
  };

  PerWorker &at(int W) { return Workers[static_cast<size_t>(W)]; }

  /// Lock held: pops worker \p W's newest parcel, else the oldest parcel
  /// of the next non-empty deque after W's; null when all are empty.
  std::unique_ptr<Item> claim(int W) {
    std::unique_ptr<Item> P;
    if (!at(W).Queue.empty()) {
      P = std::move(at(W).Queue.back());
      at(W).Queue.pop_back();
    }
    for (size_t D = 1, N = Workers.size(); D < N && !P; ++D) {
      PerWorker &Victim = Workers[(static_cast<size_t>(W) + D) % N];
      if (!Victim.Queue.empty()) {
        P = std::move(Victim.Queue.front());
        Victim.Queue.pop_front();
        ++at(W).Ctr.Steals;
      }
    }
    if (P)
      Unclaimed.fetch_sub(1, std::memory_order_relaxed);
    return P;
  }

  std::mutex M;
  std::condition_variable CV;
  std::vector<PerWorker> Workers;
  int64_t Live = 0;  ///< Parcels seeded or donated, not yet finished.
  int64_t Wakes = 0; ///< Wakeups donors granted, not yet taken.
  bool Stop = false;
  // The donation-throttle hints: written only under M, read anywhere.
  std::atomic<int64_t> Parked{0};    ///< Sleepers not yet granted a wakeup.
  std::atomic<int64_t> Unclaimed{0}; ///< Parcels queued, not yet claimed.
};

} // namespace sched
} // namespace closer

#endif // CLOSER_EXPLORER_SCHEDULER_H
