//===- Search.cpp - VeriSoft-style stateless state-space search ------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "explorer/Search.h"

#include "vm/Differential.h"
#include "vm/Vm.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <unordered_set>

using namespace closer;

std::string SearchStats::str() const {
  std::string Out;
  Out += "runs=" + std::to_string(Runs);
  Out += " states=" + std::to_string(StatesVisited);
  Out += " tree-transitions=" + std::to_string(TreeTransitions);
  Out += " transitions=" + std::to_string(Transitions);
  Out += " transitions-replayed=" + std::to_string(TransitionsReplayed);
  Out += " transitions-restored=" + std::to_string(TransitionsRestored);
  Out += " deadlocks=" + std::to_string(Deadlocks);
  Out += " terminations=" + std::to_string(Terminations);
  Out += " assertion-violations=" + std::to_string(AssertionViolations);
  Out += " divergences=" + std::to_string(Divergences);
  Out += " runtime-errors=" + std::to_string(RuntimeErrors);
  Out += " depth-limit-hits=" + std::to_string(DepthLimitHits);
  Out += " sleep-prunes=" + std::to_string(SleepSetPrunes);
  if (CacheInserts || CacheHits || CacheSaturated) {
    Out += " cache-hits=" + std::to_string(CacheHits);
    Out += " cache-inserts=" + std::to_string(CacheInserts);
    Out += " cache-saturated=" + std::to_string(CacheSaturated);
  }
  if (Steals || Wakeups) {
    Out += " steals=" + std::to_string(Steals);
    Out += " wakeups=" + std::to_string(Wakeups);
  }
  if (ArenaBytes || PoolFresh) {
    Out += " arena-bytes=" + std::to_string(ArenaBytes);
    Out += " pool-fresh=" + std::to_string(PoolFresh);
  }
  if (ReportsDropped)
    Out += " reports-dropped=" + std::to_string(ReportsDropped);
  if (VisibleOpsTotal)
    Out += " visible-op-coverage=" + std::to_string(VisibleOpsCovered) +
           "/" + std::to_string(VisibleOpsTotal);
  Out += Completed      ? " (complete)"
         : Interrupted  ? " (interrupted)"
                        : " (budget exhausted)";
  return Out;
}

std::vector<Diagnostic> SearchOptions::validate() const {
  std::vector<Diagnostic> Out;
  auto Error = [&Out](std::string Msg) {
    Out.push_back({DiagKind::Error, SourceLoc(), std::move(Msg)});
  };
  auto Warning = [&Out](std::string Msg) {
    Out.push_back({DiagKind::Warning, SourceLoc(), std::move(Msg)});
  };

  // Suspiciously huge values are negative CLI arguments wrapped through an
  // unsigned conversion; reject rather than search forever.
  constexpr uint64_t Absurd = uint64_t{1} << 40;
  if (MaxDepth == 0 || MaxDepth > Absurd)
    Error("search depth must be between 1 and 2^40 (was a negative value "
          "passed?)");
  if (Jobs > 1024)
    Error("jobs must be between 1 and 1024, or 0 for one per hardware "
          "thread");
  if (SplitDepth > Absurd)
    Error("split depth is out of range (was a negative value passed?)");
  if (CheckpointInterval > Absurd)
    Error("checkpoint interval must be >= 1, or 0 to disable checkpointing "
          "(was a negative value passed?)");
  if (StateCacheBits &&
      (StateCacheBits < StateCache::MinBits ||
       StateCacheBits > StateCache::MaxBits))
    Error("state cache size must be between 2^" +
          std::to_string(StateCache::MinBits) + " and 2^" +
          std::to_string(StateCache::MaxBits) + " slots (got 2^" +
          std::to_string(StateCacheBits) + ")");
  if (ProgressIntervalSeconds < 0)
    Error("progress interval must be >= 0 seconds");
  if (TimeBudgetSeconds < 0)
    Error("time budget must be >= 0 seconds");
  if (MaxReports == 0)
    Error("max reports must be >= 1");

  if (stateCacheEnabled() && UseSleepSets)
    Warning("state caching disables sleep sets: pruning by a path-dependent "
            "sleep set is unsound against a cross-path visited cache");
  return Out;
}

std::string ErrorReport::str() const {
  std::string Out;
  switch (Kind) {
  case Type::Deadlock:
    Out = "deadlock";
    break;
  case Type::AssertionViolation:
    Out = "assertion violation in process " + std::to_string(Process);
    if (Loc.isValid())
      Out += " at " + Loc.str();
    break;
  case Type::RuntimeError:
    Out = "runtime error: " + Error.str();
    break;
  case Type::Divergence:
    Out = "divergence: " + Error.str();
    break;
  }
  Out += " (depth " + std::to_string(Depth) + ")\n";
  Out += traceToString(TraceToError);
  if (!Choices.empty())
    Out += "replay: " + replayToString(Choices) + "\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// PathProvider
//===----------------------------------------------------------------------===//

/// Feeds recorded toss/env decisions back during replay and appends fresh
/// ones (always choosing 0 first) when execution passes the recorded
/// frontier. When the explorer carries a work-item seed prefix
/// (ParallelExplorer), decisions past the recorded path follow that prefix
/// instead of defaulting to 0, rebuilding the donor's Decision records.
class Explorer::PathProvider : public ChoiceProvider {
public:
  PathProvider(Explorer &E, size_t FreshFrom, bool &FreshMode)
      : E(E), FreshFrom(FreshFrom), FreshMode(FreshMode) {}

  int64_t choose(ChoiceKind Kind, int64_t Bound) override {
    Decision::Kind DK = Kind == ChoiceKind::Toss ? Decision::Kind::Toss
                                                 : Decision::Kind::Env;
    // The runtime reports negative bounds as errors before any branching
    // can depend on the outcome; never record a range that would wrap.
    if (Bound < 0)
      Bound = 0;
    if (E.Cursor < E.Path.size()) {
      Decision &D = E.Path[E.Cursor];
      assert(D.K == DK && D.Bound == Bound &&
             "replay diverged from recorded choices (nondeterminism leak)");
      if (E.Cursor >= FreshFrom)
        FreshMode = true;
      ++E.Cursor;
      return static_cast<int64_t>(D.Chosen);
    }
    Decision D;
    D.K = DK;
    D.Bound = Bound;
    D.Chosen = 0;
    if (E.SeedCursor < E.SeedPrefix.size()) {
      const ReplayStep &S = E.SeedPrefix[E.SeedCursor];
      assert(((DK == Decision::Kind::Toss && S.K == ReplayStep::Kind::Toss) ||
              (DK == Decision::Kind::Env && S.K == ReplayStep::Kind::Env)) &&
             S.Value >= 0 && S.Value <= Bound &&
             "work-item prefix diverged from the donor's execution");
      D.Chosen = static_cast<size_t>(S.Value);
      ++E.SeedCursor;
    }
    int64_t Out = static_cast<int64_t>(D.Chosen);
    if (E.Cursor >= FreshFrom)
      FreshMode = true;
    E.Path.push_back(std::move(D));
    ++E.Cursor;
    return Out;
  }

private:
  Explorer &E;
  size_t FreshFrom;
  bool &FreshMode;
};

//===----------------------------------------------------------------------===//
// Explorer
//===----------------------------------------------------------------------===//

Explorer::Explorer(const Module &Mod, SearchOptions Options)
    : Mod(Mod), Options(Options), Footprints(Mod),
      Sys(Mod, Options.Runtime) {
  if (this->Options.Exec != ExecMode::Interp) {
    // explore() normally pre-compiles once for all workers; a directly
    // constructed Explorer compiles its own copy so correctness never
    // depends on the caller (or the optional lower-bytecode pass).
    if (!this->Options.VmCode)
      this->Options.VmCode = vm::compileModule(Mod);
    if (this->Options.Exec == ExecMode::Vm)
      Engine = std::make_unique<vm::Vm>(this->Options.VmCode);
    else
      Engine = std::make_unique<vm::DifferentialEngine>(this->Options.VmCode);
    Sys.setEngine(Engine.get());
  }
}

void Explorer::report(ErrorReport R) {
  if (Reports.size() < Options.MaxReports) {
    Reports.push_back(std::move(R));
    if (Shared)
      Shared->Reports.fetch_add(1, std::memory_order_relaxed);
  } else {
    ++Stats.ReportsDropped;
  }
}

/// The choices consumed so far in the current run, in replayable form.
std::vector<ReplayStep> Explorer::currentChoices() const {
  std::vector<ReplayStep> Out;
  for (size_t I = 0; I < Cursor && I < Path.size(); ++I) {
    const Decision &D = Path[I];
    ReplayStep S;
    switch (D.K) {
    case Decision::Kind::Sched:
      S.K = ReplayStep::Kind::Sched;
      S.Value = D.Procs[D.Chosen];
      break;
    case Decision::Kind::Toss:
      S.K = ReplayStep::Kind::Toss;
      S.Value = static_cast<int64_t>(D.Chosen);
      break;
    case Decision::Kind::Env:
      S.K = ReplayStep::Kind::Env;
      S.Value = static_cast<int64_t>(D.Chosen);
      break;
    }
    Out.push_back(S);
  }
  return Out;
}

/// Persistent-set computation: processes are partitioned into components of
/// the "remaining footprints intersect" relation; any single component is a
/// persistent set (no outside process can ever interact with it again).
/// The component with the fewest enabled members is chosen. Runs once per
/// expanded state, entirely on member scratch: the footprint bitsets live
/// on the per-explorer arena and the index vectors keep their capacity
/// across calls, so the steady state allocates nothing here.
void Explorer::schedCandidatesInto(const std::vector<int> &Enabled,
                                   const std::vector<int> &Sleep,
                                   const std::vector<int> & /*SleepObjs*/,
                                   std::vector<int> &Out) {
  Out.clear();
  if (Options.UsePersistentSets && Sys.processCount() > 1) {
    int N = Sys.processCount();
    if (FpBuf.size() != static_cast<size_t>(N)) {
      FpBuf.clear();
      FpBuf.reserve(static_cast<size_t>(N));
      for (int P = 0; P != N; ++P)
        FpBuf.emplace_back(Footprints.objectCount(), &FpArena);
    }
    for (int P = 0; P != N; ++P) {
      Sys.frameStackInto(P, FrameBuf);
      Footprints.processFootprintInto(FrameBuf, FpBuf[P]);
    }

    CompBuf.resize(static_cast<size_t>(N));
    std::iota(CompBuf.begin(), CompBuf.end(), 0);
    auto Find = [this](int X) {
      while (CompBuf[X] != X) {
        CompBuf[X] = CompBuf[CompBuf[X]];
        X = CompBuf[X];
      }
      return X;
    };
    for (int A = 0; A != N; ++A)
      for (int B = A + 1; B != N; ++B)
        if (FpBuf[A].intersects(FpBuf[B])) {
          int Ra = Find(A), Rb = Find(B);
          if (Ra != Rb)
            CompBuf[Rb] = Ra;
        }

    // Pick the component with the fewest enabled processes (ties: the one
    // containing the smallest process id) — a deterministic choice made
    // independently of the sleep set, as the classic combination requires.
    // Enabled is ascending, so the first member of a component's
    // restriction to Enabled is also its smallest.
    int BestRoot = -1;
    size_t BestCount = 0;
    int BestFront = 0;
    for (int Seed : Enabled) {
      int Root = Find(Seed);
      size_t Count = 0;
      int Front = -1;
      for (int Q : Enabled)
        if (Find(Q) == Root) {
          if (Front < 0)
            Front = Q;
          ++Count;
        }
      if (BestRoot < 0 || Count < BestCount ||
          (Count == BestCount && Front < BestFront)) {
        BestRoot = Root;
        BestCount = Count;
        BestFront = Front;
      }
    }
    for (int Q : Enabled)
      if (Find(Q) == BestRoot)
        Out.push_back(Q);
  } else {
    Out.assign(Enabled.begin(), Enabled.end());
  }

  if (Options.UseSleepSets)
    Out.erase(std::remove_if(Out.begin(), Out.end(),
                             [&Sleep](int P) {
                               return std::find(Sleep.begin(), Sleep.end(),
                                                P) != Sleep.end();
                             }),
              Out.end());
}

void Explorer::syncAllocStats() {
  Stats.ArenaBytes = FpArena.bytesFromUpstream();
  Stats.PoolFresh = IntPool.fresh() + SnapPool.fresh();
}

void Explorer::beginSubtree(std::vector<ReplayStep> Prefix, size_t FreshFrom,
                            SystemSnapshot Snap, size_t SnapCursor,
                            std::vector<int> SnapSleep) {
  assert(SnapCursor < Prefix.size() &&
         "snapshot must sit strictly inside the work-item prefix");
  beginSubtree(std::move(Prefix), FreshFrom);
  // Placeholder decisions for the snapshot-covered head: Cursor starts at
  // SnapCursor on every run of this item, so these are never executed or
  // backtracked (they sit below Floor) — they only have to serialize
  // correctly, which needs exactly one option carrying the seed value.
  for (size_t I = 0; I < SnapCursor; ++I) {
    const ReplayStep &S = SeedPrefix[I];
    Decision D;
    switch (S.K) {
    case ReplayStep::Kind::Sched:
      D.K = Decision::Kind::Sched;
      D.Procs = {static_cast<int>(S.Value)};
      D.Chosen = 0;
      break;
    case ReplayStep::Kind::Toss:
      D.K = Decision::Kind::Toss;
      D.Bound = S.Value;
      D.Chosen = static_cast<size_t>(S.Value);
      break;
    case ReplayStep::Kind::Env:
      D.K = Decision::Kind::Env;
      D.Bound = S.Value;
      D.Chosen = static_cast<size_t>(S.Value);
      break;
    }
    Path.push_back(std::move(D));
  }
  SeedCursor = SnapCursor;
  SeedSnap.Cursor = SnapCursor;
  SeedSnap.Sleep = std::move(SnapSleep);
  SeedSnap.Snap = std::move(Snap);
  SeedSnapValid = true;
}

bool Explorer::runOnce() {
  Cursor = 0;
  const bool Seeding = SeedCursor < SeedPrefix.size();
  // On a work item's first run the whole initial segment was executed (and
  // counted) by the donor; freshness starts at the item's SeedFresh index.
  bool FreshMode = Path.empty() && !Seeding;
  size_t FreshFrom = 0;
  if (Seeding) {
    FreshFrom = SeedFresh;
  } else if (!Path.empty()) {
    // FreshFrom: index of the first decision not yet fully explored — the
    // decision backtrack() just incremented, i.e. the last one in Path.
    FreshFrom = Path.size() - 1;
  }
  PathProvider Provider(*this, FreshFrom, FreshMode);

  // Sleep-set scratch: member buffers so the per-state vectors keep their
  // capacity across paths (and runs).
  std::vector<int> &CurSleep = SleepCurBuf;
  std::vector<int> &NewSleep = SleepNextBuf;
  CurSleep.clear();

  auto HandleExec = [&](const ExecResult &R) {
    if (FreshMode) {
      for (const AssertionViolation &V : R.Violations) {
        ++Stats.AssertionViolations;
        ErrorReport Rep;
        Rep.Kind = ErrorReport::Type::AssertionViolation;
        Rep.Depth = Sys.depth();
        Rep.TraceToError = Sys.trace();
        Rep.Choices = currentChoices();
        Rep.Loc = V.Loc;
        Rep.Process = V.Process;
        Rep.StateFp = Sys.fingerprint();
        report(std::move(Rep));
        if (Options.StopOnFirstError)
          requestStop();
      }
      if (R.Error) {
        ErrorReport Rep;
        Rep.Depth = Sys.depth();
        Rep.TraceToError = Sys.trace();
        Rep.Choices = currentChoices();
        Rep.Error = R.Error;
        Rep.Process = R.Error.Process;
        Rep.StateFp = Sys.fingerprint();
        if (R.Error.Kind == RunErrorKind::Divergence) {
          ++Stats.Divergences;
          Rep.Kind = ErrorReport::Type::Divergence;
        } else {
          ++Stats.RuntimeErrors;
          Rep.Kind = ErrorReport::Type::RuntimeError;
        }
        report(std::move(Rep));
        if (Options.StopOnFirstError)
          requestStop();
      }
    }
  };

  // Checkpointed backtracking: drop snapshots that point past the surviving
  // path, then restore the deepest remaining one instead of re-executing
  // the prefix from the initial state. A checkpoint captures the state
  // *before* decision Ckpts.back().Cursor executes, so the replay below
  // resumes there and runs only the suffix. Checkpoints never sit at cursor
  // 0, so a fresh path (which must report initialization errors) always
  // takes the reset branch.
  while (!Ckpts.empty() && Ckpts.back().Cursor >= Path.size()) {
    releaseCheckpoint(Ckpts.back());
    Ckpts.pop_back();
  }
  if (!Ckpts.empty()) {
    const Checkpoint &C = Ckpts.back();
    Sys.restore(C.Snap);
    Cursor = C.Cursor;
    CurSleep = C.Sleep;
    Stats.TransitionsRestored += C.Snap.depth();
  } else if (SeedSnapValid) {
    // Work-item snapshot: the donor already executed (and its checkpoint
    // captured) everything before SeedSnap.Cursor. Initialization errors
    // were the root run's to report, so no HandleExec here — same as a
    // regular checkpoint restore.
    Sys.restore(SeedSnap.Snap);
    Cursor = SeedSnap.Cursor;
    CurSleep = SeedSnap.Sleep;
    Stats.TransitionsRestored += SeedSnap.Snap.depth();
  } else {
    ExecResult Init = Sys.reset(Provider);
    HandleExec(Init);
  }
  if (stopRequested())
    return false;

  auto RecordLeafTrace = [&] {
    if (!TraceSink || TraceSink->size() >= TraceSinkCap)
      return;
    TraceSink->push_back(Sys.trace());
  };

  for (;;) {
    // Another worker may have hit the global budget or found the first
    // error; bail out before executing the next step.
    if (stopRequested()) {
      StopFlag = true;
      return false;
    }
    bool AtPathEnd = Cursor >= Path.size();
    Sys.enabledProcessesInto(EnabledBuf);
    const std::vector<int> &Enabled = EnabledBuf;

    if (AtPathEnd && SeedCursor < SeedPrefix.size()) {
      // Work-item prefix reconstruction: rebuild the scheduling Decision
      // (candidate list and sleep set, both deterministic functions of the
      // path so far) the donor had here, without recounting its stats.
      const ReplayStep &S = SeedPrefix[SeedCursor];
      assert(S.K == ReplayStep::Kind::Sched &&
             "work-item prefix diverged: expected a scheduling step");
      Decision D;
      D.K = Decision::Kind::Sched;
      D.Procs = IntPool.acquire();
      schedCandidatesInto(Enabled, CurSleep, {}, D.Procs);
      D.Sleep = IntPool.acquire();
      D.Sleep.assign(CurSleep.begin(), CurSleep.end());
      auto It = std::find(D.Procs.begin(), D.Procs.end(),
                          static_cast<int>(S.Value));
      assert(It != D.Procs.end() &&
             "work-item prefix diverged: process not a candidate");
      D.Chosen = static_cast<size_t>(It - D.Procs.begin());
      ++SeedCursor;
      Path.push_back(std::move(D));
    } else if (AtPathEnd) {
      FreshMode = true;
      if (FrontierSink && Path.size() >= FrontierDepth) {
        // Seeding cut: hand this whole subtree to a worker. The node is
        // deliberately left uncounted — its owner counts it (and
        // classifies it as a leaf if it is one).
        FrontierSink->push_back(currentChoices());
        return true;
      }
      ++Stats.StatesVisited;
      uint64_t TotalStates = Stats.StatesVisited;
      if (Shared) {
        TotalStates =
            Shared->StatesVisited.fetch_add(1, std::memory_order_relaxed) +
            1;
        // Progress-only depth high-water mark; a lost CAS race just delays
        // the update to the next deeper state.
        uint64_t D = static_cast<uint64_t>(Sys.depth());
        uint64_t Cur = Shared->MaxDepthSeen.load(std::memory_order_relaxed);
        while (D > Cur && !Shared->MaxDepthSeen.compare_exchange_weak(
                              Cur, D, std::memory_order_relaxed)) {
        }
      }
      if (Options.MaxStates && TotalStates >= Options.MaxStates) {
        requestStop();
        return false;
      }
      if (Cache) {
        // The cache consult happens only at fresh arrivals — replayed
        // prefixes and checkpoint-restored suffixes never touch it, so
        // backtracking cannot re-insert (or self-prune on) states it
        // merely passes through again.
        switch (Cache->insert(Sys.fingerprint())) {
        case StateCache::Insert::Present:
          ++Stats.CacheHits;
          if (Shared)
            Shared->CacheHits.fetch_add(1, std::memory_order_relaxed);
          RecordLeafTrace();
          return true;
        case StateCache::Insert::Inserted:
          ++Stats.CacheInserts;
          if (Shared)
            Shared->CacheInserts.fetch_add(1, std::memory_order_relaxed);
          break;
        case StateCache::Insert::Saturated:
          // Table full: keep exploring without pruning (sound, possibly
          // redundant). Never treat saturation as "seen".
          ++Stats.CacheSaturated;
          if (Shared)
            Shared->CacheSaturated.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      if (Enabled.empty()) {
        if (Sys.classify() == GlobalStateKind::Deadlock) {
          ++Stats.Deadlocks;
          ErrorReport Rep;
          Rep.Kind = ErrorReport::Type::Deadlock;
          Rep.Depth = Sys.depth();
          Rep.TraceToError = Sys.trace();
          Rep.Choices = currentChoices();
          Rep.StateFp = Sys.fingerprint();
          report(std::move(Rep));
          if (Options.StopOnFirstError && Options.DeadlockIsError)
            requestStop();
        } else {
          ++Stats.Terminations;
        }
        RecordLeafTrace();
        return !StopFlag;
      }
      if (Sys.depth() >= Options.MaxDepth) {
        ++Stats.DepthLimitHits;
        RecordLeafTrace();
        return true;
      }
      schedCandidatesInto(Enabled, CurSleep, {}, CandBuf);
      if (CandBuf.empty()) {
        ++Stats.SleepSetPrunes;
        RecordLeafTrace();
        return true;
      }
      Decision D;
      D.K = Decision::Kind::Sched;
      D.Procs = IntPool.acquire();
      D.Procs.assign(CandBuf.begin(), CandBuf.end());
      D.Sleep = IntPool.acquire();
      D.Sleep.assign(CurSleep.begin(), CurSleep.end());
      D.Chosen = 0;
      Path.push_back(std::move(D));
    } else if (Enabled.empty() || Sys.depth() >= Options.MaxDepth) {
      // A replay should never end early (execution is deterministic given
      // the recorded choices); be defensive rather than crash.
      assert(false && "replay diverged: path continues past a leaf");
      return true;
    }

    maybeCheckpoint(CurSleep);

    Decision &D = Path[Cursor];
    assert(D.K == Decision::Kind::Sched && "expected a scheduling decision");
    if (Cursor >= FreshFrom)
      FreshMode = true;
    ++Cursor;
    int Chosen = D.Procs[D.Chosen];

    // Sleep-set propagation: processes already covered stay asleep across
    // independent transitions; earlier siblings of this decision go to
    // sleep in this subtree.
    NewSleep.clear();
    int ChosenObj = Sys.currentVisibleObject(Chosen);
    auto Independent = [&](int Q) {
      int QObj = Sys.currentVisibleObject(Q);
      return QObj < 0 || ChosenObj < 0 || QObj != ChosenObj;
    };
    for (int Q : D.Sleep)
      if (Q != Chosen && Independent(Q))
        NewSleep.push_back(Q);
    for (size_t S = 0; S < D.Chosen; ++S) {
      int Q = D.Procs[S];
      if (Q != Chosen && Independent(Q) &&
          std::find(NewSleep.begin(), NewSleep.end(), Q) == NewSleep.end())
        NewSleep.push_back(Q);
    }

    if (Options.TrackCoverage) {
      Sys.frameStackInto(Chosen, FrameBuf);
      if (!FrameBuf.empty())
        CoveredOps.insert(
            (static_cast<uint64_t>(FrameBuf.back().first) << 32) |
            FrameBuf.back().second);
    }
    ExecResult R = Sys.executeTransition(Chosen, Provider);
    ++Stats.Transitions;
    if (Shared)
      Shared->Transitions.fetch_add(1, std::memory_order_relaxed);
    if (FreshMode)
      ++Stats.TreeTransitions;
    else
      ++Stats.TransitionsReplayed;
    HandleExec(R);
    if (stopRequested())
      return false;
    CurSleep.swap(NewSleep);
  }
}

void Explorer::maybeCheckpoint(const std::vector<int> &CurSleep) {
  const size_t K = Options.CheckpointInterval;
  if (K == 0)
    return;
  // Interval rule: one snapshot every K global states along the path. A
  // worker with a pinned prefix (Floor > 0) additionally snapshots right
  // after its prefix replay, so the prefix is re-executed at most once per
  // work item instead of once per leaf.
  const size_t LastDepth = Ckpts.empty() ? 0 : Ckpts.back().Snap.depth();
  const bool Due = Sys.depth() >= LastDepth + K;
  const bool ForcePrefix = Floor > 0 && Cursor >= Floor && Ckpts.empty();
  if (!Due && !ForcePrefix)
    return;
  Checkpoint C;
  C.Cursor = Cursor;
  C.Sleep = IntPool.acquire();
  C.Sleep.assign(CurSleep.begin(), CurSleep.end());
  // Light flavor: checkpoints live and die on this explorer's own DFS
  // path, so the O(depth) event trace is rewound by truncation instead of
  // being copied in and out (donateOne materializes a full copy on the
  // rare occasion a checkpoint leaves this path inside a work item).
  // Snapshotting into a pooled snapshot reuses its buffers element-wise.
  C.Snap = SnapPool.acquire();
  Sys.snapshotLightInto(C.Snap);
  Ckpts.push_back(std::move(C));
}

void Explorer::releaseDecision(Decision &D) {
  if (D.K == Decision::Kind::Sched) {
    IntPool.release(std::move(D.Procs));
    IntPool.release(std::move(D.Sleep));
  }
}

void Explorer::releaseCheckpoint(Checkpoint &C) {
  IntPool.release(std::move(C.Sleep));
  SnapPool.release(std::move(C.Snap));
}

void Explorer::clearPath() {
  for (Decision &D : Path)
    releaseDecision(D);
  Path.clear();
}

void Explorer::clearCkpts() {
  for (Checkpoint &C : Ckpts)
    releaseCheckpoint(C);
  Ckpts.clear();
}

bool Explorer::backtrack() {
  // Decisions below Floor belong to the work item's pinned prefix (Floor
  // is 0 for a plain sequential search); options donated to other workers
  // are excluded from re-exploration.
  while (Path.size() > Floor) {
    Decision &D = Path.back();
    if (D.Chosen + 1 < D.ownedOptionEnd()) {
      ++D.Chosen;
      return true;
    }
    releaseDecision(D);
    Path.pop_back();
  }
  return false;
}

SearchStats Explorer::run() {
  // Re-invocation starts from a clean slate: stats, reports, caches, and
  // any parallel work-item state left by a previous use of this explorer.
  // An externally attached cache (ParallelExplorer's shared table) is the
  // attacher's to manage; only a privately owned one is rebuilt here.
  Stats = SearchStats();
  Reports.clear();
  if (Cache == OwnedCache.get()) {
    if (Options.stateCacheEnabled()) {
      OwnedCache = std::make_unique<StateCache>(Options.StateCacheBits);
      Cache = OwnedCache.get();
    } else {
      OwnedCache.reset();
      Cache = nullptr;
    }
  }
  CoveredOps.clear();
  clearPath();
  Cursor = 0;
  clearCkpts();
  StopFlag = false;
  LastInFlight.clear();
  Floor = 0;
  SeedPrefix.clear();
  SeedCursor = 0;
  SeedFresh = 0;
  SeedSnapValid = false;
  SeedSnap = Checkpoint();

  for (;;) {
    bool Continue = runOnce();
    ++Stats.Runs;
    if (!Continue || StopFlag) {
      if (stopRequested())
        LastInFlight = currentChoices();
      break;
    }
    if (Options.MaxRuns && Stats.Runs >= Options.MaxRuns)
      break;
    if (!backtrack()) {
      Stats.Completed = true;
      break;
    }
  }

  if (Options.TrackCoverage) {
    for (const ProcCfg &Proc : Mod.Procs)
      for (const CfgNode &Node : Proc.Nodes)
        Stats.VisibleOpsTotal += Node.isVisibleOp();
    Stats.VisibleOpsCovered = CoveredOps.size();
  }
  syncAllocStats();
  return Stats;
}

std::vector<std::pair<std::string, NodeId>>
Explorer::uncoveredVisibleOps() const {
  std::vector<std::pair<std::string, NodeId>> Out;
  for (size_t P = 0, E = Mod.Procs.size(); P != E; ++P) {
    const ProcCfg &Proc = Mod.Procs[P];
    for (size_t I = 0, N = Proc.Nodes.size(); I != N; ++I) {
      if (!Proc.Nodes[I].isVisibleOp())
        continue;
      uint64_t Key = (static_cast<uint64_t>(P) << 32) | I;
      if (!CoveredOps.count(Key))
        Out.push_back({Proc.Name, static_cast<NodeId>(I)});
    }
  }
  return Out;
}

std::vector<Trace> Explorer::collectTraces(size_t MaxTraces) {
  std::vector<Trace> Sink;
  TraceSink = &Sink;
  TraceSinkCap = MaxTraces * 4; // Collect with headroom, dedup below.
  run();
  TraceSink = nullptr;

  std::vector<Trace> Unique;
  std::unordered_set<std::string> Seen;
  for (Trace &T : Sink) {
    std::string Key = traceToString(T);
    if (Seen.insert(std::move(Key)).second) {
      Unique.push_back(std::move(T));
      if (Unique.size() >= MaxTraces)
        break;
    }
  }
  return Unique;
}
