//===- Search.cpp - VeriSoft-style stateless state-space search ------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "explorer/ParallelSearch.h"

#include "vm/Differential.h"
#include "vm/Vm.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

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
/// frontier. When the explorer carries a work-item seed prefix, decisions
/// past the recorded path follow that prefix instead of defaulting to 0,
/// rebuilding the donor's Decision records.
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
    size_t Chosen = 0;
    if (E.SeedCursor < E.SeedPrefix.size()) {
      const ReplayStep &S = E.SeedPrefix[E.SeedCursor];
      assert(((DK == Decision::Kind::Toss && S.K == ReplayStep::Kind::Toss) ||
              (DK == Decision::Kind::Env && S.K == ReplayStep::Kind::Env)) &&
             S.Value >= 0 && S.Value <= Bound &&
             "work-item prefix diverged from the donor's execution");
      Chosen = static_cast<size_t>(S.Value);
      ++E.SeedCursor;
    }
    if (E.Cursor >= FreshFrom)
      FreshMode = true;
    E.pushChoice(DK, Bound, Chosen);
    ++E.Cursor;
    return static_cast<int64_t>(Chosen);
  }

private:
  Explorer &E;
  size_t FreshFrom;
  bool &FreshMode;
};

//===----------------------------------------------------------------------===//
// Explorer
//===----------------------------------------------------------------------===//

Explorer::Explorer(const Module &Mod, const SearchOptions &Options,
                   StateCache *Cache, SharedSearchControl *Shared,
                   ProgressSlot *Progress)
    : Mod(Mod), Options(Options), Footprints(Mod), Sys(Mod, Options.Runtime),
      Cache(Cache), Shared(Shared), Progress(Progress) {
  Covered.assign((Mod.totalNodes() + 63) / 64, 0);
  if (Options.Exec != ExecMode::Interp) {
    assert(Options.VmCode && "explore() compiles the bytecode");
    if (Options.Exec == ExecMode::Vm)
      Engine = std::make_unique<vm::Vm>(Options.VmCode);
    else
      Engine = std::make_unique<vm::DifferentialEngine>(Options.VmCode);
    Sys.setEngine(Engine.get());
  }
}

void Explorer::reportHere(ErrorReport::Type Kind, int Process, SourceLoc Loc,
                          const RunError &Error) {
  if (Reports.size() < Options.MaxReports) {
    ErrorReport &R = Reports.emplace_back();
    R.Kind = Kind;
    R.Depth = Sys.depth();
    R.TraceToError = Sys.trace();
    R.Choices = currentChoices();
    R.Error = Error;
    R.Loc = Loc;
    R.Process = Process;
    R.StateFp = Sys.fingerprint();
  } else {
    ++Stats.ReportsDropped;
  }
  if (Options.StopOnFirstError)
    requestStop();
}

ReplayStep Explorer::step(const Decision &D, size_t Option) const {
  switch (D.K) {
  case Decision::Kind::Sched:
    return {ReplayStep::Kind::Sched, cands(D)[Option]};
  case Decision::Kind::Toss:
    return {ReplayStep::Kind::Toss, static_cast<int64_t>(Option)};
  case Decision::Kind::Env:
    return {ReplayStep::Kind::Env, static_cast<int64_t>(Option)};
  }
  return {};
}

std::vector<ReplayStep> Explorer::choicesUpTo(size_t N) const {
  std::vector<ReplayStep> Out;
  Out.reserve(N);
  for (size_t I = 0; I != N; ++I)
    Out.push_back(step(Path[I], Path[I].Chosen));
  return Out;
}

void Explorer::pushSched(std::span<const int> Cands,
                         std::span<const int> Sleep, size_t Chosen) {
  Decision &D = Path.emplace_back();
  D.K = Decision::Kind::Sched;
  D.NumCands = static_cast<uint32_t>(Cands.size());
  D.NumSleep = static_cast<uint32_t>(Sleep.size());
  D.CandsAt = PathInts.size();
  D.SleepAt = D.CandsAt + Cands.size();
  D.Chosen = Chosen;
  PathInts.insert(PathInts.end(), Cands.begin(), Cands.end());
  PathInts.insert(PathInts.end(), Sleep.begin(), Sleep.end());
}

void Explorer::pushChoice(Decision::Kind K, int64_t Bound, size_t Chosen) {
  Decision &D = Path.emplace_back();
  D.K = K;
  D.CandsAt = D.SleepAt = PathInts.size();
  D.Bound = Bound;
  D.Chosen = Chosen;
}

/// Persistent-set computation: processes are partitioned into components of
/// the "remaining footprints intersect" relation; any single component is a
/// persistent set (no outside process can ever interact with it again).
/// The component with the fewest enabled members is chosen. Runs once per
/// expanded state, entirely on member scratch: each process's footprint is
/// ORed from the flat footprint table over its frames, read in place, into
/// one row of FpWords, and the index vectors keep their capacity across
/// calls, so the steady state allocates nothing here.
void Explorer::schedCandidatesInto(const std::vector<int> &Enabled,
                                   const std::vector<int> &Sleep,
                                   std::vector<int> &Out) {
  Out.clear();
  // With at most one process enabled, its component is the only choice.
  if (Options.UsePersistentSets && Enabled.size() > 1) {
    const int N = Sys.processCount();
    const size_t W = Footprints.wordsPerSet();
    FpWords.resize(static_cast<size_t>(N) * W);
    for (int P = 0; P != N; ++P)
      Footprints.processFootprintInto(Sys.frames(P),
                                      FpWords.data() + P * W);
    auto Intersect = [&](int A, int B) {
      const uint64_t *RA = FpWords.data() + A * W;
      const uint64_t *RB = FpWords.data() + B * W;
      for (size_t I = 0; I != W; ++I)
        if (RA[I] & RB[I])
          return true;
      return false;
    };

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
        if (Intersect(A, B)) {
          int Ra = Find(A), Rb = Find(B);
          if (Ra != Rb)
            CompBuf[Rb] = Ra;
        }

    // Pick the component with the fewest enabled processes (ties: the one
    // containing the smallest enabled process id) — a deterministic choice
    // made independently of the sleep set, as the classic combination
    // requires. One root lookup per enabled process: Enabled is ascending,
    // so the first member seen of a component is its smallest.
    RootCount.assign(static_cast<size_t>(N), 0);
    RootFront.assign(static_cast<size_t>(N), -1);
    for (int Q : Enabled) {
      int Root = Find(Q);
      CompBuf[Q] = Root; // Fully compressed: the filter below reads it.
      if (RootCount[Root]++ == 0)
        RootFront[Root] = Q;
    }
    int BestRoot = -1;
    for (int Q : Enabled) {
      int Root = CompBuf[Q];
      if (BestRoot < 0 || RootCount[Root] < RootCount[BestRoot] ||
          (RootCount[Root] == RootCount[BestRoot] &&
           RootFront[Root] < RootFront[BestRoot]))
        BestRoot = Root;
    }
    for (int Q : Enabled)
      if (CompBuf[Q] == BestRoot)
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

void Explorer::finish() {
  Stats.ArenaBytes = FpWords.capacity() * sizeof(uint64_t);
  Stats.PoolFresh = Snaps.size();
  Stats.VisibleOpsCovered = 0;
  for (uint64_t Word : Covered)
    Stats.VisibleOpsCovered += static_cast<uint64_t>(std::popcount(Word));
  Stats.VisibleOpsTotal = 0;
  for (const ProcCfg &Proc : Mod.Procs)
    for (const CfgNode &Node : Proc.Nodes)
      Stats.VisibleOpsTotal += Node.isVisibleOp();
  Stats.Completed = !stopRequested();
}

void Explorer::beginSubtree(WorkItem Item) {
  Path.clear();
  PathInts.clear();
  Cursor = 0;
  Ckpts.clear(); // Snapshots index into the abandoned path.
  CkptInts.clear();
  LastInFlight.clear();
  Floor = Item.Prefix.size();
  SeedPrefix = std::move(Item.Prefix);
  SeedCursor = 0;
  SeedFresh = Item.FreshFrom;
  if (!Item.HasSnap)
    return;
  assert(Item.SnapCursor > 0 && Item.SnapCursor < SeedPrefix.size() &&
         "snapshot must sit strictly inside the work-item prefix");
  // Placeholder decisions for the snapshot-covered head: every run of this
  // item starts at checkpoint 0 or deeper, so these are never executed or
  // backtracked (they sit below Floor) — they only have to render
  // correctly, which needs exactly one option carrying the seed value.
  for (size_t I = 0; I < Item.SnapCursor; ++I) {
    const ReplayStep &S = SeedPrefix[I];
    switch (S.K) {
    case ReplayStep::Kind::Sched: {
      const int P = static_cast<int>(S.Value);
      pushSched({&P, 1}, {}, 0);
      break;
    }
    case ReplayStep::Kind::Toss:
      pushChoice(Decision::Kind::Toss, S.Value, static_cast<size_t>(S.Value));
      break;
    case ReplayStep::Kind::Env:
      pushChoice(Decision::Kind::Env, S.Value, static_cast<size_t>(S.Value));
      break;
    }
  }
  SeedCursor = Item.SnapCursor;
  // The shipped snapshot is checkpoint 0. It sits below Floor, so no
  // backtrack inside the item ever pops it.
  if (Snaps.empty())
    Snaps.emplace_back();
  Snaps[0] = std::move(Item.Snap);
  Ckpts.push_back({Item.SnapCursor, 0, Item.SnapSleep.size()});
  CkptInts.assign(Item.SnapSleep.begin(), Item.SnapSleep.end());
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
    if (!FreshMode)
      return;
    for (const AssertionViolation &V : R.Violations) {
      ++Stats.AssertionViolations;
      reportHere(ErrorReport::Type::AssertionViolation, V.Process, V.Loc);
    }
    if (!R.Error)
      return;
    if (R.Error.Kind == RunErrorKind::Divergence) {
      ++Stats.Divergences;
      reportHere(ErrorReport::Type::Divergence, R.Error.Process, {}, R.Error);
    } else {
      ++Stats.RuntimeErrors;
      reportHere(ErrorReport::Type::RuntimeError, R.Error.Process, {},
                 R.Error);
    }
  };

  // Checkpointed backtracking: restore the deepest checkpoint that survived
  // backtrack() instead of re-executing the prefix from the initial state.
  // A checkpoint captures the state *before* decision Ckpts.back().Cursor
  // executes, so the replay below resumes there and runs only the suffix.
  // Initialization errors are the root run's to report: checkpoints never
  // sit at cursor 0, so a fresh path always takes the reset branch.
  if (!Ckpts.empty()) {
    const Checkpoint &C = Ckpts.back();
    const SystemSnapshot &Snap = Snaps[Ckpts.size() - 1];
    Sys.restore(Snap);
    Cursor = C.Cursor;
    const std::span<const int> Sleep = sleep(C);
    CurSleep.assign(Sleep.begin(), Sleep.end());
    Stats.TransitionsRestored += Snap.depth();
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
    // Only a fresh or reconstructed decision needs the enabled set; a
    // replayed one already names its process.
    if (AtPathEnd)
      Sys.enabledProcessesInto(EnabledBuf);
    const std::vector<int> &Enabled = EnabledBuf;

    if (AtPathEnd && SeedCursor < SeedPrefix.size()) {
      // Work-item prefix reconstruction: rebuild the scheduling Decision
      // (candidate list and sleep set, both deterministic functions of the
      // path so far) the donor had here, without recounting its stats.
      const ReplayStep &S = SeedPrefix[SeedCursor];
      assert(S.K == ReplayStep::Kind::Sched &&
             "work-item prefix diverged: expected a scheduling step");
      schedCandidatesInto(Enabled, CurSleep, CandBuf);
      auto It = std::find(CandBuf.begin(), CandBuf.end(),
                          static_cast<int>(S.Value));
      assert(It != CandBuf.end() &&
             "work-item prefix diverged: process not a candidate");
      pushSched(CandBuf, CurSleep, static_cast<size_t>(It - CandBuf.begin()));
      ++SeedCursor;
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
      if (Options.MaxStates) {
        uint64_t TotalStates =
            Shared ? Shared->StatesVisited.fetch_add(
                         1, std::memory_order_relaxed) + 1
                   : Stats.StatesVisited;
        if (TotalStates >= Options.MaxStates) {
          requestStop();
          return false;
        }
      }
      if (Cache) {
        // The cache consult happens only at fresh arrivals — replayed
        // prefixes and checkpoint-restored suffixes never touch it, so
        // backtracking cannot re-insert (or self-prune on) states it
        // merely passes through again.
        switch (Cache->insert(Sys.fingerprint())) {
        case StateCache::Insert::Present:
          ++Stats.CacheHits;
          RecordLeafTrace();
          return true;
        case StateCache::Insert::Inserted:
          ++Stats.CacheInserts;
          break;
        case StateCache::Insert::Saturated:
          // Table full: keep exploring without pruning (sound, possibly
          // redundant). Never treat saturation as "seen".
          ++Stats.CacheSaturated;
          break;
        }
      }
      if (Enabled.empty()) {
        if (Sys.classify() == GlobalStateKind::Deadlock) {
          ++Stats.Deadlocks;
          reportHere(ErrorReport::Type::Deadlock);
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
      schedCandidatesInto(Enabled, CurSleep, CandBuf);
      if (CandBuf.empty()) {
        ++Stats.SleepSetPrunes;
        RecordLeafTrace();
        return true;
      }
      pushSched(CandBuf, CurSleep, 0);
    } else {
      // A replay should never end early or reach a disabled choice
      // (execution is deterministic given the recorded choices); be
      // defensive rather than crash.
      const Decision &Next = Path[Cursor];
      if (Next.K != Decision::Kind::Sched || Sys.depth() >= Options.MaxDepth ||
          !Sys.processEnabled(cands(Next)[Next.Chosen])) {
        assert(false && "replay diverged: path continues past a leaf");
        return true;
      }
    }

    maybeCheckpoint(CurSleep);

    const Decision &D = Path[Cursor];
    assert(D.K == Decision::Kind::Sched && "expected a scheduling decision");
    if (Cursor >= FreshFrom)
      FreshMode = true;
    ++Cursor;
    const std::span<const int> Cands = cands(D);
    int Chosen = Cands[D.Chosen];

    // Sleep-set propagation: processes already covered stay asleep across
    // independent transitions; earlier siblings of this decision go to
    // sleep in this subtree.
    NewSleep.clear();
    int ChosenObj = Sys.currentVisibleObject(Chosen);
    auto Independent = [&](int Q) {
      int QObj = Sys.currentVisibleObject(Q);
      return QObj < 0 || ChosenObj < 0 || QObj != ChosenObj;
    };
    for (int Q : sleep(D))
      if (Q != Chosen && Independent(Q))
        NewSleep.push_back(Q);
    for (size_t S = 0; S < D.Chosen; ++S) {
      int Q = Cands[S];
      if (Q != Chosen && Independent(Q) &&
          std::find(NewSleep.begin(), NewSleep.end(), Q) == NewSleep.end())
        NewSleep.push_back(Q);
    }

    const uint32_t Site = Sys.currentNodeIndex(Chosen);
    Covered[Site / 64] |= 1ull << (Site % 64);
    ExecResult R = Sys.executeTransition(Chosen, Provider);
    ++Stats.Transitions;
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
  // after its prefix replay unless a checkpoint already sits at or past
  // Floor, so the prefix is re-executed at most once per work item instead
  // of once per leaf.
  const size_t N = Ckpts.size();
  const size_t LastDepth = N ? Snaps[N - 1].depth() : 0;
  const bool Due = Sys.depth() >= LastDepth + K;
  const bool ForcePrefix =
      Floor > 0 && Cursor >= Floor && (N == 0 || Ckpts.back().Cursor < Floor);
  if (!Due && !ForcePrefix)
    return;
  Ckpts.push_back({Cursor, CkptInts.size(), CurSleep.size()});
  CkptInts.insert(CkptInts.end(), CurSleep.begin(), CurSleep.end());
  // Light flavor: checkpoints live and die on this explorer's own DFS
  // path, so the O(depth) event trace is rewound by truncation instead of
  // being copied in and out (donateOne materializes a full copy on the
  // rare occasion a checkpoint leaves this path inside a work item).
  if (N == Snaps.size())
    Snaps.emplace_back();
  Sys.snapshotLightInto(Snaps[N]);
}

bool Explorer::backtrack() {
  // Decisions below Floor belong to the work item's pinned prefix (Floor
  // is 0 for the seeding pass); options donated to other workers are
  // excluded from re-exploration.
  while (Path.size() > Floor) {
    Decision &D = Path.back();
    if (D.Chosen + 1 < D.ownedOptionEnd()) {
      ++D.Chosen;
      // Checkpoints past the changed decision captured states its old
      // choice led to.
      while (!Ckpts.empty() && Ckpts.back().Cursor >= Path.size()) {
        CkptInts.resize(Ckpts.back().SleepAt);
        Ckpts.pop_back();
      }
      return true;
    }
    PathInts.resize(D.CandsAt);
    Path.pop_back();
  }
  return false;
}
