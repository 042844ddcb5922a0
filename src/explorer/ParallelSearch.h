//===- ParallelSearch.h - The search behind explore() -----------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal to closer::explore() (explorer/Search.h): the depth-first
/// search worker and the work-sharing search that runs it. Stateless
/// exploration is embarrassingly parallel: a recorded choice prefix fully
/// determines the subtree below it, so disjoint prefixes can be exhausted
/// by independent workers, each owning a private System.
///
///  * a sequential seeding pass expands the search tree to a split depth
///    and seeds the frontier prefixes round-robin across the per-worker
///    deques of a mutex-guarded work pool (explorer/Scheduler.h). With one
///    job there is no split depth, no scheduler and no thread: the seeding
///    pass is the whole search;
///  * N workers claim prefixes — own deque first, then stealing — and run
///    the same runOnce/backtrack loop below them, pinned so backtracking
///    never escapes the claimed subtree;
///  * an idle worker parks on the pool's condition variable when every
///    deque is empty; busy workers donate the highest unexplored sibling
///    prefix of their current path whenever more workers are parked than
///    parcels are queued, each donation waking one sleeper, so load stays
///    balanced on skewed trees;
///  * explorers write no shared counter per state, transition or run
///    unless a budget needs it (see SharedSearchControl). The stop flag
///    (StopOnFirstError, budgets, the monitor) is loaded at every replay
///    step and sits on a cache line of its own; the exact MaxStates/MaxRuns
///    totals are shared atomics incremented only while that budget is set;
///    `--progress` sums one padded slot per explorer that only its owner
///    stores to. A single unobserved explorer checks its budgets against
///    its own counters and touches no atomic;
///  * per-worker SearchStats are merged at exit, and ErrorReports are
///    deduplicated by a hash of their choice sequence (by the erroneous
///    state's fingerprint under state caching, where distinct paths can
///    report the same state);
///  * under state caching, all workers share one concurrent fingerprint
///    table (explorer/StateCache.h), so a state expanded by any worker is
///    pruned everywhere else.
///
/// Without caching, the result is bit-identical to the single-job run's on
/// every tree-shaped statistic (states, tree transitions, leaf
/// classification) and reports the same error set, independent of worker
/// scheduling, because the work items partition the search tree exactly.
/// Under caching, the *report set* stays deterministic for truncation-free
/// runs while visit order and replay-effort stats may vary; see
/// docs/ALGORITHM.md "Concurrent state caching".
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_EXPLORER_PARALLELSEARCH_H
#define CLOSER_EXPLORER_PARALLELSEARCH_H

#include "explorer/Footprints.h"
#include "explorer/Search.h"
#include "explorer/Scheduler.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <vector>

namespace closer {

/// Cache-line size the shared search state is padded to.
constexpr size_t CacheLineBytes = 64;

/// One explorer's `--progress` counters: copies of its running totals that
/// only the owning explorer stores (relaxed, once per run) and that the
/// monitor thread loads and sums across explorers (MaxDepth: takes the
/// maximum). They steer nothing, so a stale read is harmless.
/// Each slot fills exactly one cache line, so an explorer's stores never
/// invalidate a line another explorer writes; shared progress counters
/// would put every observed run back on one contended line.
struct alignas(CacheLineBytes) ProgressSlot {
  std::atomic<uint64_t> States{0};
  std::atomic<uint64_t> Transitions{0};
  std::atomic<uint64_t> Runs{0};
  /// Reports retained; duplicates across explorers are merged only at the
  /// end, so the sum may exceed the final report count.
  std::atomic<uint64_t> Reports{0};
  /// Deepest global state this explorer reached.
  std::atomic<uint64_t> MaxDepth{0};
  // State-cache traffic (zero when caching is off).
  std::atomic<uint64_t> CacheHits{0};
  std::atomic<uint64_t> CacheInserts{0};
  std::atomic<uint64_t> CacheSaturated{0};
};
static_assert(sizeof(ProgressSlot) == CacheLineBytes,
              "one progress slot per cache line");

/// State shared between the explorers of one run (null for an unobserved
/// single-job run). Per state, transition or run, an explorer writes no
/// line another explorer writes, except a budget total while that budget
/// is set:
///  * Stop is loaded at every replay step and stored once, when the run
///    stops (StopOnFirstError, a budget, the monitor). It has a cache line
///    to itself, so no counter traffic invalidates it;
///  * StatesVisited/Runs are the exact global totals behind MaxStates/
///    MaxRuns, so both budgets keep their sequential meaning. An explorer
///    increments StatesVisited only while MaxStates is set and Runs only
///    while MaxRuns is set: one read-modify-write per state or per run;
///  * Progress holds one slot per explorer (0 for the seeding pass, 1 + W
///    for worker W) when `--progress` reads them, and none otherwise.
struct SharedSearchControl {
  SharedSearchControl(size_t Explorers, bool WithProgress)
      : Progress(WithProgress ? Explorers : 0) {}

  /// Explorer \p I's progress slot, or null when progress is off.
  ProgressSlot *progressSlot(size_t I) {
    return I < Progress.size() ? &Progress[I] : nullptr;
  }

  alignas(CacheLineBytes) std::atomic<bool> Stop{false};
  alignas(CacheLineBytes) std::atomic<uint64_t> StatesVisited{0};
  std::atomic<uint64_t> Runs{0};
  std::vector<ProgressSlot> Progress;
};

/// A claimed unit of work: explore the whole subtree under Prefix.
/// Decisions at index >= FreshFrom have not been executed by any other
/// worker and count as fresh for stats/report purposes.
///
/// When the donor held a checkpoint at or below the donation point, a copy
/// rides along (HasSnap) and becomes the receiver's checkpoint 0: the
/// receiver restores Snap and replays only Prefix[SnapCursor..] instead of
/// re-executing the whole prefix from the initial state. Without it, a work
/// item donated at depth d costs d replayed transitions before any fresh
/// exploration starts, which dominates the wall clock of deep,
/// donation-heavy runs.
struct WorkItem {
  std::vector<ReplayStep> Prefix;
  size_t FreshFrom = 0;
  bool HasSnap = false;
  /// Number of leading Prefix steps Snap already covers; Snap is the state
  /// *before* Prefix[SnapCursor] executes, with SnapSleep the sleep set in
  /// force there (empty when sleep sets are off).
  size_t SnapCursor = 0;
  std::vector<int> SnapSleep;
  SystemSnapshot Snap;
};

/// The scheduler a multi-job run works on: one deque of WorkItems per
/// worker behind one lock, with idle workers parked on one condition
/// variable.
using ExploreScheduler = sched::Scheduler<WorkItem>;

/// One depth-first search worker: a private System, the current DFS path
/// and its checkpoints, and the statistics, reports and coverage of
/// everything it explored. explore() runs one as the seeding pass and one
/// per worker thread, then merges their results.
class Explorer {
public:
  /// \p Options must already be normalized by explore() (VmCode compiled
  /// for Vm/Both). \p Cache and \p Shared are null when caching is off and
  /// for an unobserved single-job run, respectively; \p Progress is this
  /// explorer's slot in Shared, null when progress is off.
  Explorer(const Module &Mod, const SearchOptions &Options, StateCache *Cache,
           SharedSearchControl *Shared, ProgressSlot *Progress);

  /// Exhausts the current (sub)tree — the whole tree unless a work item
  /// pins a prefix or a frontier cuts it — with the one runOnce/backtrack
  /// loop every job count shares. A budget or cooperative stop records the
  /// in-flight prefix in LastInFlight. \p Sched is null for the seeding
  /// pass; otherwise \p W is the calling worker's index, and a sibling
  /// subtree is donated whenever the scheduler wants one.
  void drive(ExploreScheduler *Sched, int W);

  /// Worker-thread body: claims work items (own deque, then stealing) and
  /// drives each until the scheduler drains or the run stops. Time spent
  /// driving claimed items and time spent in Scheduler::next() land in
  /// Stats.BusySeconds and Stats.ParkedSeconds (two clock reads per item).
  void work(ExploreScheduler &Sched, int W);

  /// Completes Stats once this explorer is done: allocator counters, the
  /// visible operations it covered, and whether its part of the tree was
  /// exhausted. With one job that part is the whole search.
  void finish();

  bool stopRequested() const {
    return StopFlag ||
           (Shared && Shared->Stop.load(std::memory_order_acquire));
  }

  /// Seeding mode: instead of descending past FrontierDepth decisions,
  /// emit the choice prefix here and treat the node as an artificial leaf.
  /// The frontier node itself is left uncounted for its future owner.
  std::vector<std::vector<ReplayStep>> *FrontierSink = nullptr;
  size_t FrontierDepth = 0;
  /// Leaf traces are appended here (up to TraceSinkCap) when set.
  std::vector<Trace> *TraceSink = nullptr;
  size_t TraceSinkCap = 0;

  // Results, accumulated across every subtree this explorer drove.
  SearchStats Stats;
  std::vector<ErrorReport> Reports;
  /// Covered visible sites: bit I is set once module-wide node I (see
  /// nodeBases()) has executed its visible operation. Explorers' bitmaps
  /// are ORed together at the end of a run.
  std::vector<uint64_t> Covered;
  /// The choice prefix that was in flight when a stop cut the search
  /// short — the deepest abandoned path, replayable by hand to resume the
  /// search (empty when the search ended normally).
  std::vector<ReplayStep> LastInFlight;

private:
  /// One choice point of the DFS path. A scheduling decision's candidates
  /// (in exploration order) and its entry sleep set are two slices of
  /// PathInts; toss and env decisions own empty slices at the stack top.
  struct Decision {
    enum class Kind : uint8_t { Sched, Toss, Env };
    Kind K = Kind::Sched;
    /// Trailing options handed to another worker by work sharing;
    /// backtrack() must not re-explore them.
    uint32_t DonatedTail = 0;
    uint32_t NumCands = 0;
    uint32_t NumSleep = 0;
    size_t CandsAt = 0; ///< PathInts offset of the candidates.
    size_t SleepAt = 0; ///< PathInts offset of the sleep set.
    int64_t Bound = 0;  ///< Toss/Env: the options are [0, Bound].
    size_t Chosen = 0;

    size_t optionCount() const {
      if (K == Kind::Sched)
        return NumCands;
      // A negative bound is a runtime error (the System reports it before
      // any choice is recorded); never let it wrap into a huge count.
      return Bound < 0 ? 1 : static_cast<size_t>(Bound) + 1;
    }
    /// Options still owned by this explorer (donated ones excluded).
    size_t ownedOptionEnd() const { return optionCount() - DonatedTail; }
  };

  class PathProvider;

  /// A checkpoint: snapshot slot Snaps[I] for Ckpts[I] holds the System
  /// just before executing decision Path[Cursor], and CkptInts[SleepAt,
  /// SleepAt + NumSleep) the sleep set in force there. Stays valid while
  /// the decisions before Cursor survive backtracking — Path[Cursor]'s
  /// Chosen branch may change underneath it, since the snapshot captures
  /// the state *before* the choice is acted on.
  struct Checkpoint {
    size_t Cursor = 0;
    size_t SleepAt = 0;
    size_t NumSleep = 0;
  };

  /// Executes one full path following (and extending) Path. Returns false
  /// when the global stop condition triggered.
  bool runOnce();
  bool backtrack();
  /// Snapshots the state before executing Path[Cursor] when the checkpoint
  /// interval (or a worker's pinned prefix) calls for it.
  void maybeCheckpoint(const std::vector<int> &CurSleep);
  /// Decisions Path[0, N) in replayable form, each at its chosen option.
  std::vector<ReplayStep> choicesUpTo(size_t N) const;
  /// The choices consumed so far in the current run.
  std::vector<ReplayStep> currentChoices() const {
    return choicesUpTo(std::min(Cursor, Path.size()));
  }
  /// The replay step that selects option \p Option of \p D.
  ReplayStep step(const Decision &D, size_t Option) const;
  /// Slices of the path stacks. Read them before the next push: an append
  /// may move the stack.
  std::span<const int> cands(const Decision &D) const {
    return {PathInts.data() + D.CandsAt, D.NumCands};
  }
  std::span<const int> sleep(const Decision &D) const {
    return {PathInts.data() + D.SleepAt, D.NumSleep};
  }
  std::span<const int> sleep(const Checkpoint &C) const {
    return {CkptInts.data() + C.SleepAt, C.NumSleep};
  }
  /// Pushes a scheduling decision with candidates \p Cands and entry sleep
  /// set \p Sleep (neither may point into PathInts).
  void pushSched(std::span<const int> Cands, std::span<const int> Sleep,
                 size_t Chosen);
  /// Pushes a toss or env decision.
  void pushChoice(Decision::Kind K, int64_t Bound, size_t Chosen);
  /// Persistent-set candidate selection; overwrites \p Out (scratch storage
  /// on the hot path).
  void schedCandidatesInto(const std::vector<int> &Enabled,
                           const std::vector<int> &Sleep,
                           std::vector<int> &Out);
  /// Records an error at the current state, reached along the current
  /// choices, and stops the search under StopOnFirstError.
  void reportHere(ErrorReport::Type Kind, int Process = -1,
                  SourceLoc Loc = {}, const RunError &Error = {});
  /// Copies this explorer's running totals into its progress slot, once
  /// per run; no-op when progress is off.
  void publishProgress();
  /// Stops this explorer and, when coordinated, every sibling worker.
  void requestStop() {
    StopFlag = true;
    if (Shared)
      Shared->Stop.store(true, std::memory_order_release);
  }
  /// Prepares this explorer to exhaust the subtree under \p Item's prefix.
  /// The prefix decisions are reconstructed (candidates and sleep sets
  /// recomputed) during the first runOnce() without recounting stats;
  /// decisions at index >= Item.FreshFrom count as fresh. backtrack() then
  /// never pops below the prefix. When the item ships the donor's
  /// checkpoint, it becomes checkpoint 0, so every run restores it (or a
  /// deeper one) and replays only the prefix tail; the covered head is
  /// materialized as placeholder decisions (single-option, never executed)
  /// so currentChoices() and donation prefixes still record the full path
  /// from the root.
  void beginSubtree(WorkItem Item);
  /// Moves one unexplored sibling subtree from the current path to worker
  /// \p W's deque (whence an idle worker steals it).
  bool donateOne(ExploreScheduler &Sched, int W);

  const Module &Mod;
  SearchOptions Options;
  FootprintAnalysis Footprints;
  System Sys;
  /// The engine installed into Sys for Vm/Both modes (null for Interp).
  /// Owned here: each explorer needs its own register file even when the
  /// compiled code is shared.
  std::unique_ptr<ExecEngine> Engine;
  /// The DFS path and the int stack behind its decisions' candidate and
  /// sleep-set slices: pushing a decision appends to both, popping
  /// truncates both, so the storage is reused from path to path.
  std::vector<Decision> Path;
  std::vector<int> PathInts;
  size_t Cursor = 0;
  /// Checkpoints along the current path, shallowest first (strictly
  /// increasing Cursor), and the int stack behind their sleep sets. Empty
  /// when CheckpointInterval is 0.
  std::vector<Checkpoint> Ckpts;
  std::vector<int> CkptInts;
  /// Snapshot slots: Ckpts[I] always uses Snaps[I]. Slots outlive their
  /// checkpoints and keep their buffers, so a capture allocates only when
  /// the state outgrows what its slot held before.
  std::vector<SystemSnapshot> Snaps;
  /// The run's visited-state fingerprint table, consulted at fresh
  /// arrivals and shared by every explorer of the run (null when caching
  /// is off).
  StateCache *Cache;
  /// Shared budgets and stop flag (null for an unobserved single-job run,
  /// whose hot path then touches no atomics).
  SharedSearchControl *Shared;
  /// This explorer's progress slot (null unless `--progress` reads it).
  ProgressSlot *Progress;
  bool StopFlag = false;

  // Work-item state (see beginSubtree).
  /// Decisions [0, Floor) are a pinned work-item prefix; backtrack() stops
  /// there instead of at the root.
  size_t Floor = 0;
  /// Choice prefix still to be reconstructed into Path on the next
  /// runOnce(), and the cursor walking it.
  std::vector<ReplayStep> SeedPrefix;
  size_t SeedCursor = 0;
  /// First prefix index whose execution counts as fresh (seeded items:
  /// prefix length — nothing; donated items: the donated sibling step).
  size_t SeedFresh = 0;

  // Per-transition scratch, reused across every state expansion.
  std::vector<int> EnabledBuf;
  /// One footprint row per process (Footprints.wordsPerSet() words each);
  /// sized once per run.
  std::vector<uint64_t> FpWords;
  /// Union-find scratch for schedCandidatesInto, and per-root counts and
  /// smallest enabled members of the components.
  std::vector<int> CompBuf;
  std::vector<int> RootCount;
  std::vector<int> RootFront;
  /// Current/next sleep-set scratch for the runOnce descent loop.
  std::vector<int> SleepCurBuf;
  std::vector<int> SleepNextBuf;
  std::vector<int> CandBuf;
};

} // namespace closer

#endif // CLOSER_EXPLORER_PARALLELSEARCH_H
