//===- ParallelSearch.cpp - The search behind explore() -------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "explorer/ParallelSearch.h"

#include "vm/Bytecode.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>

using namespace closer;

namespace {

//===----------------------------------------------------------------------===//
// Monitor
//===----------------------------------------------------------------------===//

/// Observability sidecar thread: periodically sums the explorers' progress
/// slots in SharedSearchControl for `--progress` lines, and raises the
/// cooperative stop flag when the wall-clock budget expires or an external
/// stop flag (SIGINT) is set. Workers are never blocked by it: it only
/// loads the slots they store to, and stores the stop flag once.
class Monitor {
public:
  Monitor(const SearchOptions &Opts, SharedSearchControl &Control,
          ExploreScheduler *Sched)
      : Opts(Opts), Control(Control), Sched(Sched) {}

  ~Monitor() { stop(); }

  /// Whether these options need a monitor thread at all.
  static bool wanted(const SearchOptions &Opts) {
    return Opts.ProgressIntervalSeconds > 0 || Opts.TimeBudgetSeconds > 0 ||
           Opts.ExternalStop != nullptr;
  }

  void start() {
    if (!wanted(Opts) || T.joinable())
      return;
    Begin = std::chrono::steady_clock::now();
    T = std::thread([this] { loop(); });
  }

  void stop() {
    if (!T.joinable())
      return;
    {
      std::lock_guard<std::mutex> Lock(M);
      Done = true;
    }
    // Exactly one waiter exists — the monitor thread itself — so
    // notify_one suffices.
    CV.notify_one();
    T.join();
  }

  /// True when this monitor raised the stop flag (budget or external).
  bool interrupted() const {
    return Interrupted.load(std::memory_order_acquire);
  }

private:
  void triggerStop() {
    Interrupted.store(true, std::memory_order_release);
    Control.Stop.store(true, std::memory_order_release);
    if (Sched)
      Sched->requestStop(); // Wakes every parked worker to observe Stop.
  }

  /// The explorers' progress slots, summed (MaxDepth: maximized).
  struct Totals {
    uint64_t States = 0, Transitions = 0, Runs = 0, Reports = 0,
             MaxDepth = 0, CacheHits = 0, CacheInserts = 0,
             CacheSaturated = 0;
  };

  Totals sumSlots() const {
    auto Load = [](const std::atomic<uint64_t> &A) {
      return A.load(std::memory_order_relaxed);
    };
    Totals T;
    for (const ProgressSlot &S : Control.Progress) {
      T.States += Load(S.States);
      T.Transitions += Load(S.Transitions);
      T.Runs += Load(S.Runs);
      T.Reports += Load(S.Reports);
      T.MaxDepth = std::max(T.MaxDepth, Load(S.MaxDepth));
      T.CacheHits += Load(S.CacheHits);
      T.CacheInserts += Load(S.CacheInserts);
      T.CacheSaturated += Load(S.CacheSaturated);
    }
    return T;
  }

  void emitProgress(double Elapsed, double Dt, const Totals &T,
                    const Totals &Last) {
    if (Dt <= 0)
      Dt = 1;
    // Cache traffic is appended only for cached runs, pre-formatted so the
    // line below still goes out in one fprintf call (concurrent report
    // printing cannot shear it).
    char CacheBuf[128] = "";
    if (Opts.stateCacheEnabled())
      std::snprintf(
          CacheBuf, sizeof(CacheBuf),
          " cache-hits=%llu cache-inserts=%llu cache-saturated=%llu",
          static_cast<unsigned long long>(T.CacheHits),
          static_cast<unsigned long long>(T.CacheInserts),
          static_cast<unsigned long long>(T.CacheSaturated));
    std::fprintf(
        stderr,
        "progress: t=%.1fs states=%llu states/s=%.0f transitions=%llu "
        "trans/s=%.0f depth=%llu frontier=%zu runs=%llu reports=%llu%s\n",
        Elapsed, static_cast<unsigned long long>(T.States),
        static_cast<double>(T.States - Last.States) / Dt,
        static_cast<unsigned long long>(T.Transitions),
        static_cast<double>(T.Transitions - Last.Transitions) / Dt,
        static_cast<unsigned long long>(T.MaxDepth),
        Sched ? Sched->queuedHint() : static_cast<size_t>(0),
        static_cast<unsigned long long>(T.Runs),
        static_cast<unsigned long long>(T.Reports), CacheBuf);
  }

  void loop() {
    // Poll fast enough that budgets and Ctrl-C feel immediate even when
    // the progress interval is long (or progress is off).
    double PollS = 0.05;
    if (Opts.ProgressIntervalSeconds > 0)
      PollS = std::min(PollS, Opts.ProgressIntervalSeconds / 2);
    const auto Poll = std::chrono::duration<double>(std::max(PollS, 0.001));

    double NextProgress = Opts.ProgressIntervalSeconds;
    double LastElapsed = 0;
    Totals Last;

    std::unique_lock<std::mutex> Lock(M);
    for (;;) {
      if (CV.wait_for(Lock, Poll, [this] { return Done; }))
        return;
      double Elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Begin)
                           .count();
      if (!interrupted()) {
        if (Opts.ExternalStop &&
            Opts.ExternalStop->load(std::memory_order_relaxed))
          triggerStop();
        else if (Opts.TimeBudgetSeconds > 0 &&
                 Elapsed >= Opts.TimeBudgetSeconds)
          triggerStop();
      }
      if (Opts.ProgressIntervalSeconds > 0 && Elapsed >= NextProgress) {
        Totals Now = sumSlots();
        emitProgress(Elapsed, Elapsed - LastElapsed, Now, Last);
        Last = Now;
        LastElapsed = Elapsed;
        NextProgress = Elapsed + Opts.ProgressIntervalSeconds;
      }
    }
  }

  const SearchOptions &Opts;
  SharedSearchControl &Control;
  ExploreScheduler *Sched;
  std::chrono::steady_clock::time_point Begin;
  std::thread T;
  std::mutex M;
  std::condition_variable CV;
  bool Done = false;
  std::atomic<bool> Interrupted{false};
};

uint64_t reportKey(const ErrorReport &R) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  Mix(static_cast<uint64_t>(R.Kind));
  for (const ReplayStep &S : R.Choices) {
    Mix(static_cast<uint64_t>(S.K) + 1);
    Mix(static_cast<uint64_t>(S.Value) + 0x9e3779b9ull);
  }
  return H;
}

/// Report identity under state caching: the same erroneous state can be
/// reached freshly along different choice sequences (by different workers,
/// or sequentially before its fingerprint lands in the cache), so reports
/// deduplicate by the state and the error details instead of by path.
uint64_t stateReportKey(const ErrorReport &R) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  Mix(static_cast<uint64_t>(R.Kind));
  Mix(R.StateFp);
  Mix(static_cast<uint64_t>(R.Error.Kind));
  Mix(static_cast<uint64_t>(R.Process) + 0x9e3779b9ull);
  Mix(static_cast<uint64_t>(R.Loc.Line) << 32 |
      static_cast<uint64_t>(R.Loc.Column));
  return H;
}

void accumulate(SearchStats &Into, const SearchStats &From) {
  Into.Runs += From.Runs;
  Into.Transitions += From.Transitions;
  Into.TreeTransitions += From.TreeTransitions;
  Into.TransitionsReplayed += From.TransitionsReplayed;
  Into.TransitionsRestored += From.TransitionsRestored;
  Into.StatesVisited += From.StatesVisited;
  Into.Deadlocks += From.Deadlocks;
  Into.Terminations += From.Terminations;
  Into.AssertionViolations += From.AssertionViolations;
  Into.Divergences += From.Divergences;
  Into.RuntimeErrors += From.RuntimeErrors;
  Into.DepthLimitHits += From.DepthLimitHits;
  Into.SleepSetPrunes += From.SleepSetPrunes;
  Into.CacheHits += From.CacheHits;
  Into.CacheInserts += From.CacheInserts;
  Into.CacheSaturated += From.CacheSaturated;
  Into.ReportsDropped += From.ReportsDropped;
  Into.Steals += From.Steals;
  Into.Wakeups += From.Wakeups;
  Into.ArenaBytes += From.ArenaBytes;
  Into.PoolFresh += From.PoolFresh;
  Into.BusySeconds += From.BusySeconds;
  Into.ParkedSeconds += From.ParkedSeconds;
}

using Clock = std::chrono::steady_clock;

double seconds(Clock::duration D) {
  return std::chrono::duration<double>(D).count();
}

} // namespace

//===----------------------------------------------------------------------===//
// Explorer: the search loop and work sharing
//===----------------------------------------------------------------------===//

bool Explorer::donateOne(ExploreScheduler &Sched, int W) {
  // Donate from the highest (closest to the work-item root) decision with
  // untried siblings: that is the largest parcel of remaining work, which
  // is what keeps skewed trees balanced. The donated option is taken from
  // the tail of the sibling range so the donor's own left-to-right DFS
  // order is unaffected.
  for (size_t I = Floor; I < Path.size(); ++I) {
    Decision &D = Path[I];
    size_t End = D.ownedOptionEnd();
    if (D.Chosen + 1 >= End)
      continue;
    WorkItem Item;
    Item.FreshFrom = I;
    Item.Prefix = choicesUpTo(I);
    Item.Prefix.push_back(step(D, End - 1));
    // Ship the deepest checkpoint at or below the donation point: its
    // snapshot is the state before Path[Cursor] with the current choices
    // [0, Cursor), which are exactly the prefix steps just recorded
    // (Cursor <= I, and backtracking can only have changed choices at or
    // above the checkpoint's own cursor, which pops it first). The
    // receiver then replays Prefix[Cursor..] instead of the whole prefix.
    for (size_t C = Ckpts.size(); C-- != 0;) {
      const Checkpoint &Ckpt = Ckpts[C];
      if (Ckpt.Cursor > I)
        continue;
      if (Ckpt.Cursor > 0) {
        Item.HasSnap = true;
        Item.SnapCursor = Ckpt.Cursor;
        const std::span<const int> Sleep = sleep(Ckpt);
        Item.SnapSleep.assign(Sleep.begin(), Sleep.end());
        // Checkpoints are trace-light; the receiver's trace is unrelated
        // to ours, so ship a full copy (valid here for the same reason the
        // checkpoint itself is: the prefix it covers is still in force).
        Sys.materializeTraceInto(Snaps[C], Item.Snap);
      }
      break;
    }
    ++D.DonatedTail;
    // The parcel goes to the donor's own deque (a thief steals the oldest
    // parcel there) and one parked worker, if any, is woken. A donation
    // racing a stop still lands on the deque: workers exit without
    // claiming it, and drainRemaining() hands it to the resume-prefix
    // collector — the subtree is reported as abandoned, never silently
    // lost.
    Sched.donate(W, std::move(Item));
    return true;
  }
  return false;
}

void Explorer::drive(ExploreScheduler *Sched, int W) {
  // Donation throttling is demand-driven (Scheduler::wantDonation): a
  // parcel is shed only while more workers are parked than parcels are
  // queued. A donation costs one short critical section and at most one
  // notify_one, so the throttle reacts to actual demand: zero donations
  // while everyone is busy, immediate ones when a sibling starves, with no
  // tuning knob to mis-set.
  for (;;) {
    bool Continue = runOnce();
    ++Stats.Runs;
    publishProgress();
    if (Options.MaxRuns) {
      uint64_t TotalRuns =
          Shared ? Shared->Runs.fetch_add(1, std::memory_order_relaxed) + 1
                 : Stats.Runs;
      if (TotalRuns >= Options.MaxRuns)
        requestStop();
    }
    if (!Continue || stopRequested()) {
      // runOnce() only gives up under a stop. Remember the in-flight
      // choice prefix so a stopped run can name its abandoned subtrees
      // (`replay:` resume lines).
      LastInFlight = currentChoices();
      return;
    }
    if (!backtrack())
      return;
    if (Sched && Sched->wantDonation())
      donateOne(*Sched, W);
  }
}

void Explorer::publishProgress() {
  if (!Progress)
    return;
  auto Put = [](std::atomic<uint64_t> &Slot, uint64_t V) {
    Slot.store(V, std::memory_order_relaxed);
  };
  Put(Progress->States, Stats.StatesVisited);
  Put(Progress->Transitions, Stats.Transitions);
  Put(Progress->Runs, Stats.Runs);
  Put(Progress->Reports, Reports.size());
  Put(Progress->CacheHits, Stats.CacheHits);
  Put(Progress->CacheInserts, Stats.CacheInserts);
  Put(Progress->CacheSaturated, Stats.CacheSaturated);
  // A run ends at its deepest state. Only this explorer stores MaxDepth,
  // so the load reads back its own last store.
  if (Sys.depth() > Progress->MaxDepth.load(std::memory_order_relaxed))
    Put(Progress->MaxDepth, Sys.depth());
}

void Explorer::work(ExploreScheduler &Sched, int W) {
  WorkItem Item;
  // One clock read when a claim returns and one when its item is driven:
  // the gaps are time in next() (popping, stealing, parked) and time busy.
  Clock::time_point Mark = Clock::now();
  for (;;) {
    const bool Claimed = Sched.next(W, Item);
    const Clock::time_point Start = Clock::now();
    Stats.ParkedSeconds += seconds(Start - Mark);
    if (!Claimed)
      break;
    beginSubtree(std::move(Item));
    drive(&Sched, W);
    Mark = Clock::now();
    Stats.BusySeconds += seconds(Mark - Start);
    // The parcel is retired whether its subtree was exhausted or abandoned
    // under a stop; the last retirement declares the run drained.
    Sched.finishItem();
    if (stopRequested()) {
      Sched.requestStop();
      break;
    }
  }
  // Scheduler traffic becomes part of this worker's stats (and of the
  // merged totals). The counters are owner-written, so reading them on the
  // worker's own thread is race-free.
  const sched::WorkerCounters &C = Sched.counters(W);
  Stats.Steals = C.Steals;
  Stats.Wakeups = C.Wakeups;
  finish();
}

//===----------------------------------------------------------------------===//
// closer::explore — the one search entry point
//===----------------------------------------------------------------------===//

namespace {

/// Folds the explorers' results into \p R: stats summed (one Workers entry
/// per explorer), reports deduplicated and put in an order independent of
/// worker scheduling, coverage unioned.
void mergeResults(const Module &Mod, const std::vector<Explorer *> &Parts,
                  SearchResult &R) {
  // Under caching the same erroneous state can be freshly reached along
  // different paths before its fingerprint lands in the table, so dedup by
  // state identity; otherwise the choice sequence is the identity.
  const bool ByState = R.Options.stateCacheEnabled();
  std::unordered_set<uint64_t> SeenReports;
  std::vector<uint64_t> Covered(Parts.front()->Covered.size(), 0);
  for (Explorer *Ex : Parts) {
    R.Workers.push_back(Ex->Stats);
    accumulate(R.Stats, Ex->Stats);
    for (size_t I = 0, E = Covered.size(); I != E; ++I)
      Covered[I] |= Ex->Covered[I];
    for (ErrorReport &Rep : Ex->Reports) {
      uint64_t Key = ByState ? stateReportKey(Rep) : reportKey(Rep);
      if (SeenReports.insert(Key).second) // Same error twice — keep one.
        R.Reports.push_back(std::move(Rep));
    }
  }

  // Shallow errors first, ties broken by the replayable choice sequence.
  std::sort(R.Reports.begin(), R.Reports.end(),
            [](const ErrorReport &A, const ErrorReport &B) {
              if (A.Depth != B.Depth)
                return A.Depth < B.Depth;
              return replayToString(A.Choices) < replayToString(B.Choices);
            });
  if (R.Reports.size() > R.Options.MaxReports) {
    R.Stats.ReportsDropped += R.Reports.size() - R.Options.MaxReports;
    R.Reports.resize(R.Options.MaxReports);
  }

  // Only visible sites are ever marked, so the set bits are the covered
  // sites.
  R.Stats.VisibleOpsCovered = 0;
  uint32_t Site = 0; // Module-wide node index, in nodeBases() order.
  for (const ProcCfg &Proc : Mod.Procs)
    for (size_t I = 0, N = Proc.Nodes.size(); I != N; ++I, ++Site) {
      bool Hit = (Covered[Site / 64] >> (Site % 64)) & 1;
      R.Stats.VisibleOpsCovered += Hit;
      if (Proc.Nodes[I].isVisibleOp() && !Hit)
        R.Uncovered.push_back({Proc.Name, static_cast<NodeId>(I)});
    }
  R.Stats.VisibleOpsTotal = Parts.front()->Stats.VisibleOpsTotal;
}

/// The resume prefixes of a stopped run: the nonempty \p Abandoned
/// prefixes, deduplicated, deepest first with ties broken by the replay
/// string so the order is independent of worker scheduling.
std::vector<std::vector<ReplayStep>>
resumePrefixes(std::vector<std::vector<ReplayStep>> Abandoned) {
  std::vector<std::vector<ReplayStep>> Out;
  std::unordered_set<std::string> Seen;
  for (std::vector<ReplayStep> &P : Abandoned)
    if (!P.empty() && Seen.insert(replayToString(P)).second)
      Out.push_back(std::move(P));
  std::sort(Out.begin(), Out.end(),
            [](const std::vector<ReplayStep> &A,
               const std::vector<ReplayStep> &B) {
              if (A.size() != B.size())
                return A.size() > B.size();
              return replayToString(A) < replayToString(B);
            });
  return Out;
}

/// The search behind explore() and collectTraces(): a seeding pass, then
/// (Jobs > 1) the workers, all running Explorer::drive(). Leaf traces go
/// to \p TraceSink when it is set (single-job runs only).
SearchResult runSearch(const Module &Mod, const SearchOptions &Options,
                       std::vector<Trace> *TraceSink, size_t TraceSinkCap) {
  const auto Begin = std::chrono::steady_clock::now();
  SearchResult R;
  // Normalize first, so the options recorded in the result describe the
  // search that actually ran. Jobs == 0 means one worker per hardware
  // thread; the resolved count lands in the stats-json artifact.
  R.Options = Options;
  SearchOptions &Opts = R.Options;
  if (Opts.Jobs == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    Opts.Jobs = HW ? HW : 1;
    if (Opts.Jobs > 1024)
      Opts.Jobs = 1024; // validate()'s ceiling; absurd HW reports exist.
  }
  // Soundness, not a preference: a sleep set summarizes what *this path*
  // already covered, but a shared visited cache prunes across paths. A
  // state skipped here because of the sleep set would be cache-pruned at
  // its other arrivals and never explored at all.
  if (Opts.stateCacheEnabled())
    Opts.UseSleepSets = false;
  // Compile the bytecode once; the seeder and every worker share the
  // immutable module while owning their own register files.
  if (Opts.Exec != ExecMode::Interp && !Opts.VmCode)
    Opts.VmCode = vm::compileModule(Mod);

  // One shared fingerprint table per run: every explorer (the seeder and
  // all workers) consults the same cache, so a state expanded anywhere is
  // pruned everywhere.
  std::unique_ptr<StateCache> Cache;
  if (Opts.stateCacheEnabled())
    Cache = std::make_unique<StateCache>(Opts.StateCacheBits);

  // A multi-job run has a scheduler; the monitor (progress, budgets,
  // SIGINT) watches the whole run, including the seeding pass, which a
  // time budget or Ctrl-C must also be able to interrupt. The shared
  // atomics are attached only when something reads them — other workers
  // or the monitor — so an unobserved single-job run keeps its
  // atomic-free hot path.
  const int Jobs = static_cast<int>(Opts.Jobs);
  std::optional<ExploreScheduler> Sched;
  if (Jobs > 1)
    Sched.emplace(Jobs);
  // Progress slots: 0 for the seeder, 1 + W for worker W.
  SharedSearchControl Control(Sched ? static_cast<size_t>(Jobs) + 1 : 1,
                              Opts.ProgressIntervalSeconds > 0);
  SharedSearchControl *Shared =
      Sched || Monitor::wanted(Opts) ? &Control : nullptr;
  Monitor Mon(Opts, Control, Sched ? &*Sched : nullptr);
  Mon.start();

  // Phase 1 — sequential seeding: expand the tree to the split depth,
  // collecting the frontier prefixes. The seeder owns (counts, reports)
  // everything strictly above the frontier; each frontier node and its
  // subtree belong to the worker that claims the prefix. With one job
  // there is no split depth: the seeding pass is the whole search.
  std::vector<std::vector<ReplayStep>> Frontier;
  Explorer Seeder(Mod, Opts, Cache.get(), Shared, Control.progressSlot(0));
  Seeder.TraceSink = TraceSink;
  Seeder.TraceSinkCap = TraceSinkCap;
  if (Sched) {
    size_t SplitDepth = Opts.SplitDepth;
    if (SplitDepth == 0) {
      SplitDepth = 3;
      for (size_t J = 1; J < Opts.Jobs; J <<= 1)
        ++SplitDepth;
    }
    Seeder.FrontierSink = &Frontier;
    Seeder.FrontierDepth = SplitDepth;
  }
  const Clock::time_point SeedBegin = Clock::now();
  Seeder.drive(nullptr, 0);
  Seeder.Stats.BusySeconds = seconds(Clock::now() - SeedBegin);
  Seeder.finish();

  // Phase 2 — parallel subtree exhaustion with work stealing. The frontier
  // is dealt round-robin across the per-worker deques before any worker
  // thread starts, so everyone begins with local work and stealing only
  // kicks in once the initial shares go uneven.
  std::vector<std::unique_ptr<Explorer>> Workers;
  if (Sched) {
    int Target = 0;
    for (std::vector<ReplayStep> &Prefix : Frontier) {
      WorkItem Item;
      Item.FreshFrom = Prefix.size(); // Replay of the prefix is never fresh.
      Item.Prefix = std::move(Prefix);
      Sched->seed(Target, std::move(Item));
      Target = (Target + 1) % Jobs;
    }
    for (int W = 0; W != Jobs; ++W)
      Workers.push_back(std::make_unique<Explorer>(
          Mod, Opts, Cache.get(), Shared,
          Control.progressSlot(static_cast<size_t>(W) + 1)));
    if (Control.Stop.load(std::memory_order_acquire))
      Sched->requestStop(); // Budget/first error already hit while seeding.

    std::vector<std::thread> Threads;
    for (int W = 0; W != Jobs; ++W)
      Threads.emplace_back([&Sched, W, Ex = Workers[W].get()] {
        Ex->work(*Sched, W);
      });
    for (std::thread &T : Threads)
      T.join();
  }
  Mon.stop();

  std::vector<Explorer *> Parts{&Seeder};
  for (std::unique_ptr<Explorer> &W : Workers)
    Parts.push_back(W.get());
  mergeResults(Mod, Parts, R);
  R.Stats.Completed = !Seeder.stopRequested();
  R.Stats.Interrupted = Mon.interrupted() && !R.Stats.Completed;
  R.Stats.WallSeconds = seconds(Clock::now() - Begin);
  if (!R.Stats.Completed) {
    std::vector<std::vector<ReplayStep>> Abandoned;
    for (Explorer *Ex : Parts)
      Abandoned.push_back(std::move(Ex->LastInFlight));
    if (Sched)
      for (WorkItem &I : Sched->drainRemaining())
        Abandoned.push_back(std::move(I.Prefix));
    R.Resume = resumePrefixes(std::move(Abandoned));
  }
  return R;
}

} // namespace

SearchResult closer::explore(const Module &Mod, const SearchOptions &Options) {
  return runSearch(Mod, Options, nullptr, 0);
}

TraceSet closer::collectTraces(const Module &Mod, const SearchOptions &Options,
                               size_t MaxTraces) {
  SearchOptions Opts = Options;
  Opts.Jobs = 1;
  std::vector<Trace> Sink;
  // Collect with headroom: many leaves share a trace.
  SearchResult R = runSearch(Mod, Opts, &Sink, MaxTraces * 4);

  TraceSet Out;
  Out.Stats = R.Stats;
  std::unordered_set<std::string> Seen;
  for (Trace &T : Sink) {
    if (Out.Traces.size() >= MaxTraces)
      break;
    if (Seen.insert(traceToString(T)).second)
      Out.Traces.push_back(std::move(T));
  }
  return Out;
}
