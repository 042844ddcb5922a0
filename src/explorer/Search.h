//===- Search.h - VeriSoft-style stateless state-space search --*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Systematic exploration of a closed system's global state space in the
/// style of VeriSoft [God97]:
///
///  * the search is *stateless*: no visited state is stored; alternative
///    paths are explored by re-executing the system from its initial state
///    under a recorded sequence of choices (scheduling choices at global
///    states, VS_toss outcomes, and — when driving a still-open module —
///    environment choices over a finite domain);
///  * depth-bounded DFS guarantees complete coverage of the state space up
///    to the bound;
///  * partial-order reduction: persistent sets derived from static
///    communication footprints (processes whose remaining footprints are
///    disjoint can never interact) plus sleep sets, as in [God96];
///  * deadlocks, assertion violations, divergences and runtime errors are
///    reported with their full visible trace.
///
/// A state-caching mode (store fingerprints, prune revisits) is provided as
/// an ablation of the stateless design; see explorer/StateCache.h.
///
/// The stable entry point for running a search is closer::explore(), which
/// selects sequential, parallel, or cached execution from the options.
/// Explorer (below) and ParallelExplorer (ParallelSearch.h) are the
/// implementation underneath it.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_EXPLORER_SEARCH_H
#define CLOSER_EXPLORER_SEARCH_H

#include "explorer/Footprints.h"
#include "explorer/Replay.h"
#include "explorer/StateCache.h"
#include "runtime/System.h"
#include "support/Arena.h"
#include "support/Diagnostics.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

namespace closer {

class ParallelExplorer;

namespace vm {
struct CompiledModule;
} // namespace vm

/// Which transition-execution engine the search drives the System with.
/// All modes produce bit-identical tree-shaped statistics and reports; only
/// throughput differs (and Both pays for two executions per transition).
enum class ExecMode {
  Interp, ///< The tree-walking interpreter (the default).
  Vm,     ///< The direct-threaded bytecode VM.
  Both,   ///< Differential oracle: run both, abort on any divergence.
};

struct SearchOptions {
  /// Maximum transitions along one path (the paper's "complete coverage of
  /// the state space up to some depth").
  size_t MaxDepth = 60;
  /// Hard budget on replays (0 = unlimited).
  uint64_t MaxRuns = 0;
  /// Hard budget on fresh tree states (0 = unlimited).
  uint64_t MaxStates = 0;
  bool UsePersistentSets = true;
  bool UseSleepSets = true;
  /// State caching: log2 of the fingerprint-cache slot count (0 = off).
  /// The cache stores state fingerprints and prunes revisits; it is a
  /// bounded concurrent table (explorer/StateCache.h) shared across all
  /// workers, so `--state-cache` composes with `--jobs N`. Sleep sets are
  /// disabled whenever caching is on: their path-dependent pruning is
  /// unsound against a cross-path visited set (a slept-on state could be
  /// cache-pruned everywhere else and never get explored at all).
  unsigned StateCacheBits = 0;
  bool StopOnFirstError = false;
  /// Treat deadlocks as errors for StopOnFirstError purposes.
  bool DeadlockIsError = true;
  /// Maximum error reports retained.
  size_t MaxReports = 64;
  /// Track which visible operations (CFG call sites) the search exercised
  /// — a test-adequacy metric for the paper's "lightweight testing
  /// platform" use (§6).
  bool TrackCoverage = true;
  /// Worker threads for ParallelExplorer (1 = plain sequential search;
  /// 0 = auto: explore() resolves it to the hardware concurrency and
  /// records the resolved count in SearchResult::Options).
  size_t Jobs = 1;
  /// Number of decisions the sequential seeding pass expands before
  /// handing subtrees to workers (0 = derive from Jobs). Only read by
  /// ParallelExplorer.
  size_t SplitDepth = 0;
  /// Keep a System snapshot every this many global states along the DFS
  /// stack and, on backtrack, restore the nearest one instead of
  /// re-executing the whole choice prefix (0 = pure stateless search, the
  /// paper's baseline). Any value yields bit-identical tree-shaped stats;
  /// only Transitions/TransitionsReplayed/TransitionsRestored move.
  size_t CheckpointInterval = 0;
  //===--------------------------------------------------------------------===//
  // Observability & graceful degradation (read by ParallelExplorer)
  //===--------------------------------------------------------------------===//
  /// Print a progress line to stderr every this many seconds (0 = off).
  /// Driven by a monitor thread over lock-free counter snapshots; workers
  /// never block or synchronize for it.
  double ProgressIntervalSeconds = 0;
  /// Cooperative wall-clock budget: after this many seconds the run stop
  /// flag is raised, workers drain, and partial results (stats, reports,
  /// in-flight resume prefixes) are still delivered (0 = unlimited).
  double TimeBudgetSeconds = 0;
  /// External cooperative-stop flag (e.g. set by a SIGINT handler); polled
  /// by the monitor thread. Never written by the search.
  const std::atomic<bool> *ExternalStop = nullptr;
  /// Transition-execution engine (interpreter, bytecode VM, or the
  /// interpreter-vs-VM differential oracle).
  ExecMode Exec = ExecMode::Interp;
  /// Pre-compiled bytecode for Vm/Both modes. explore() compiles the module
  /// once and shares the immutable result across the seeder and all
  /// workers; left null with Exec == Interp. An Explorer constructed
  /// directly with a null VmCode compiles its own copy.
  std::shared_ptr<const vm::CompiledModule> VmCode;
  SystemOptions Runtime;

  bool stateCacheEnabled() const { return StateCacheBits != 0; }

  /// Centralized option validation: every constraint the explorers assume
  /// (previously scattered as ad-hoc checks across the CLI and the
  /// explorers). The CLI prints any errors and exits 1 before a search
  /// starts; explore() merely clamps, so library callers who skip
  /// validation still get a defined (if adjusted) run. Warnings describe
  /// adjustments explore() applies automatically (e.g. sleep sets off
  /// under caching).
  std::vector<Diagnostic> validate() const;
};

/// State shared between the workers of a ParallelExplorer run: the global
/// MaxRuns/MaxStates budgets and the StopOnFirstError stop flag keep their
/// sequential meaning by living in atomics every worker consults.
struct SharedSearchControl {
  std::atomic<uint64_t> StatesVisited{0};
  std::atomic<uint64_t> Runs{0};
  std::atomic<bool> Stop{false};
  // Observability counters, maintained with relaxed increments on the
  // worker hot path and snapshotted (racily, by design) by the progress
  // monitor; they steer nothing, so staleness is harmless.
  std::atomic<uint64_t> Transitions{0};
  /// Reports retained by any worker; duplicates are not yet deduplicated
  /// here, so this may exceed the final merged report count.
  std::atomic<uint64_t> Reports{0};
  /// Deepest global state reached by any worker so far.
  std::atomic<uint64_t> MaxDepthSeen{0};
  // State-cache traffic (zero when caching is off); progress-only, like
  // Transitions/Reports above.
  std::atomic<uint64_t> CacheHits{0};
  std::atomic<uint64_t> CacheInserts{0};
  std::atomic<uint64_t> CacheSaturated{0};

  void resetCounters() {
    StatesVisited.store(0);
    Runs.store(0);
    Stop.store(false);
    Transitions.store(0);
    Reports.store(0);
    MaxDepthSeen.store(0);
    CacheHits.store(0);
    CacheInserts.store(0);
    CacheSaturated.store(0);
  }
};

struct SearchStats {
  uint64_t Runs = 0;             ///< Completed path replays.
  uint64_t Transitions = 0;      ///< Transitions executed, incl. replays.
  uint64_t TreeTransitions = 0;  ///< Distinct search-tree edges.
  /// Prefix transitions re-executed during replay (the stateless-search
  /// overhead checkpointing attacks); Transitions = TreeTransitions +
  /// TransitionsReplayed.
  uint64_t TransitionsReplayed = 0;
  /// Prefix transitions skipped by restoring a checkpoint instead of
  /// re-executing them (0 in pure stateless mode).
  uint64_t TransitionsRestored = 0;
  uint64_t StatesVisited = 0;    ///< Distinct tree nodes (global states).
  uint64_t Deadlocks = 0;
  uint64_t Terminations = 0;
  uint64_t AssertionViolations = 0;
  uint64_t Divergences = 0;
  uint64_t RuntimeErrors = 0;
  uint64_t DepthLimitHits = 0;
  uint64_t SleepSetPrunes = 0;
  /// State-cache traffic (all zero when caching is off). CacheHits counts
  /// pruned revisits, CacheInserts first-time stores, CacheSaturated fresh
  /// arrivals the full cache declined to store (searched anyway: the
  /// saturation policy is "stop inserting, keep searching").
  uint64_t CacheHits = 0;
  uint64_t CacheInserts = 0;
  uint64_t CacheSaturated = 0;
  /// Error reports discarded because MaxReports was already reached.
  uint64_t ReportsDropped = 0;
  /// Visible-operation call sites executed at least once / total in the
  /// module (0/0 when coverage tracking is off).
  uint64_t VisibleOpsCovered = 0;
  uint64_t VisibleOpsTotal = 0;
  // Scheduler and allocator traffic (all zero for sequential, non-pooled
  // runs). Not tree-shaped: these vary run to run with thread timing, so
  // str() prints them only when nonzero and the equivalence tests exclude
  // them.
  /// Work items this worker stole from another worker's deque.
  uint64_t Steals = 0;
  /// Targeted wakeups this worker received while parked.
  uint64_t Wakeups = 0;
  /// Bytes the worker's footprint arena drew from the global heap.
  uint64_t ArenaBytes = 0;
  /// Pool misses (fresh allocations) across the worker's object pools —
  /// bounded by the DFS-stack high-water mark, not the state count.
  uint64_t PoolFresh = 0;
  bool Completed = false; ///< Search exhausted the (bounded) tree.
  /// Stop came from outside the search itself — the wall-clock budget or
  /// an external flag (SIGINT) — rather than from completion or a
  /// MaxRuns/MaxStates/StopOnFirstError condition. Partial results are
  /// still valid; resume prefixes identify the abandoned subtrees.
  bool Interrupted = false;
  /// Wall-clock duration of the run (not part of str(): tree-shaped output
  /// stays bit-identical across machines and runs).
  double WallSeconds = 0;

  std::string str() const;
};

/// One reported problem, with the visible trace that leads to it and the
/// choice sequence that reproduces it (see explorer/Replay.h).
struct ErrorReport {
  enum class Type { Deadlock, AssertionViolation, RuntimeError, Divergence };
  Type Kind;
  size_t Depth = 0;
  Trace TraceToError;
  std::vector<ReplayStep> Choices; ///< Feed to replayChoices to reproduce.
  RunError Error;    ///< RuntimeError / Divergence details.
  SourceLoc Loc;     ///< Assertion location.
  int Process = -1;
  /// Fingerprint of the erroneous global state. Under state caching, where
  /// the same state can be reached freshly along different paths by
  /// different workers, reports are deduplicated by state identity (this
  /// field plus the error details) rather than by choice sequence.
  uint64_t StateFp = 0;

  std::string str() const;
};

/// Everything a finished search produced, as returned by closer::explore().
struct SearchResult {
  /// The options the search actually ran with, after explore()'s
  /// normalizations (sleep sets off under caching, Jobs clamped) — what a
  /// run artifact should record as its self-description.
  SearchOptions Options;
  SearchStats Stats;
  std::vector<ErrorReport> Reports;
  /// Per-part statistics: element 0 is the seeding pass (or the single
  /// explorer of a sequential run), then one entry per worker thread.
  std::vector<SearchStats> Workers;
  /// For interrupted runs: replayable choice prefixes of the abandoned
  /// subtrees, deepest first. Empty for completed runs.
  std::vector<std::vector<ReplayStep>> Resume;
  /// Visible-operation call sites the search never exercised.
  std::vector<std::pair<std::string, NodeId>> Uncovered;
};

/// The unified search entry point: closes over every execution mode.
/// Selects sequential (Jobs <= 1), work-sharing parallel (Jobs > 1), and
/// cached (stateCacheEnabled()) execution from \p Options, including the
/// combination `--state-cache --jobs N` (one concurrent fingerprint table
/// shared by all workers). Normalizations applied (see
/// SearchOptions::validate() for the corresponding warnings): sleep sets
/// are disabled when caching is on; Jobs == 0 runs sequentially.
///
/// All tools and tests should call this instead of constructing Explorer /
/// ParallelExplorer directly.
SearchResult explore(const Module &Mod, const SearchOptions &Options);

class Explorer {
public:
  Explorer(const Module &Mod, SearchOptions Options = {});

  /// Runs the exploration to completion (or budget exhaustion).
  SearchStats run();

  const std::vector<ErrorReport> &reports() const { return Reports; }

  /// Statistics of the most recent run()/collectTraces() invocation.
  const SearchStats &stats() const { return Stats; }

  /// Visible-operation call sites never exercised by the last run, as
  /// (procedure name, node id) pairs — the blind spots of the search.
  std::vector<std::pair<std::string, NodeId>> uncoveredVisibleOps() const;

  /// Convenience: all distinct visible traces of leaves reached, capped at
  /// \p MaxTraces. Used by the trace-inclusion property tests.
  std::vector<Trace> collectTraces(size_t MaxTraces);

private:
  struct Decision {
    enum class Kind { Sched, Toss, Env };
    Kind K = Kind::Sched;
    // Sched:
    std::vector<int> Procs; ///< Candidate processes, in exploration order.
    std::vector<int> Sleep; ///< Sleep set on entry (process indices).
    std::vector<int> SleepObjs; ///< Their pending objects at entry.
    // Toss/Env:
    int64_t Bound = 0;
    size_t Chosen = 0;
    /// Trailing options handed to another worker by ParallelExplorer's
    /// work sharing; backtrack() must not re-explore them.
    uint32_t DonatedTail = 0;

    size_t optionCount() const {
      if (K == Kind::Sched)
        return Procs.size();
      // A negative bound is a runtime error (the System reports it before
      // any choice is recorded); never let it wrap into a huge count.
      return Bound < 0 ? 1 : static_cast<size_t>(Bound) + 1;
    }
    /// Options still owned by this explorer (donated ones excluded).
    size_t ownedOptionEnd() const { return optionCount() - DonatedTail; }
  };

  class PathProvider;

  /// A snapshot of the System just before executing decision Path[Cursor],
  /// with the sleep set in force at that point. Stays valid while the
  /// decision survives backtracking (Cursor < Path.size()) — the decision's
  /// Chosen branch may change underneath it, since the snapshot captures
  /// the state *before* the choice is acted on.
  struct Checkpoint {
    size_t Cursor = 0;
    std::vector<int> Sleep;
    SystemSnapshot Snap;
  };

  /// Executes one full path following (and extending) Path. Returns false
  /// when the global stop condition triggered.
  bool runOnce();
  bool backtrack();
  /// Snapshots the state before executing Path[Cursor] when the checkpoint
  /// interval (or a worker's pinned prefix) calls for it.
  void maybeCheckpoint(const std::vector<int> &CurSleep);
  std::vector<ReplayStep> currentChoices() const;
  /// Persistent-set candidate selection; overwrites \p Out (which is pool
  /// or scratch storage on the hot path).
  void schedCandidatesInto(const std::vector<int> &Enabled,
                           const std::vector<int> &Sleep,
                           const std::vector<int> &SleepObjs,
                           std::vector<int> &Out);
  /// Copies the allocator counters (arena bytes, pool misses) into Stats.
  /// Called at the end of run() and by ParallelExplorer after each worker
  /// finishes.
  void syncAllocStats();
  // Pool recycling for path/checkpoint storage; popping without releasing
  // is only a missed reuse, never a leak.
  void releaseDecision(Decision &D);
  void releaseCheckpoint(Checkpoint &C);
  void clearPath();
  void clearCkpts();
  void report(ErrorReport R);
  bool stopRequested() const {
    return StopFlag ||
           (Shared && Shared->Stop.load(std::memory_order_acquire));
  }
  /// Stops this explorer and, when coordinated, every sibling worker.
  void requestStop() {
    StopFlag = true;
    if (Shared)
      Shared->Stop.store(true, std::memory_order_release);
  }
  /// ParallelExplorer: prepare this explorer to exhaust the subtree under
  /// \p Prefix. The prefix decisions are reconstructed (candidates and
  /// sleep sets recomputed) during the first runOnce() without recounting
  /// stats; decisions at index >= \p FreshFrom count as fresh. backtrack()
  /// then never pops below the prefix. Stats/Reports accumulate across
  /// successive subtrees.
  void beginSubtree(std::vector<ReplayStep> Prefix, size_t FreshFrom) {
    clearPath();
    Cursor = 0;
    clearCkpts(); // Snapshots index into the abandoned path.
    LastInFlight.clear();
    Floor = Prefix.size();
    SeedPrefix = std::move(Prefix);
    SeedCursor = 0;
    SeedFresh = FreshFrom;
    SeedSnapValid = false;
    SeedSnap = Checkpoint();
  }
  /// Like beginSubtree(), but the work item ships the donor's checkpoint
  /// covering Prefix[0, SnapCursor): the first runOnce() restores \p Snap
  /// with \p SnapSleep in force and replays only the prefix tail. The
  /// covered head is materialized as placeholder decisions (single-option,
  /// never executed) so currentChoices() and donation prefixes still
  /// serialize the full path from the root.
  void beginSubtree(std::vector<ReplayStep> Prefix, size_t FreshFrom,
                    SystemSnapshot Snap, size_t SnapCursor,
                    std::vector<int> SnapSleep);

  const Module &Mod;
  SearchOptions Options;
  FootprintAnalysis Footprints;
  System Sys;
  /// The engine installed into Sys for Vm/Both modes (null for Interp).
  /// Owned here: each explorer needs its own register file even when the
  /// compiled code is shared.
  std::unique_ptr<ExecEngine> Engine;
  std::vector<Decision> Path;
  size_t Cursor = 0;
  /// Checkpoints along the current path, shallowest first (strictly
  /// increasing Cursor). Empty when CheckpointInterval is 0.
  std::vector<Checkpoint> Ckpts;
  SearchStats Stats;
  std::vector<ErrorReport> Reports;
  /// Visited-state fingerprint cache consulted at fresh arrivals. Either
  /// owned (sequential caching: run() builds a private table) or attached
  /// by ParallelExplorer (one table shared across all workers). Null when
  /// caching is off.
  StateCache *Cache = nullptr;
  std::unique_ptr<StateCache> OwnedCache;
  /// Covered visible sites, packed as ProcIdx * 2^32 + NodeId.
  std::unordered_set<uint64_t> CoveredOps;
  bool StopFlag = false;
  std::vector<Trace> *TraceSink = nullptr;
  size_t TraceSinkCap = 0;
  /// The choice prefix that was in flight when a cooperative stop cut the
  /// current runOnce() short — the deepest abandoned path, replayable by
  /// hand to resume the search (empty when the run ended normally).
  std::vector<ReplayStep> LastInFlight;

  // Parallel-mode state, driven by ParallelExplorer (see ParallelSearch.h).
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
  /// Work-item snapshot (see the snapshot beginSubtree overload): restored
  /// whenever no regular checkpoint survives, so with CheckpointInterval 0
  /// every path of the item still starts at SeedSnap.Cursor instead of the
  /// initial state. Cursor/Sleep/Snap reuse the Checkpoint layout.
  bool SeedSnapValid = false;
  Checkpoint SeedSnap;
  /// Seeding mode: instead of descending past FrontierDepth decisions,
  /// emit the choice prefix here and treat the node as an artificial leaf.
  /// The frontier node itself is left uncounted for its future owner.
  std::vector<std::vector<ReplayStep>> *FrontierSink = nullptr;
  size_t FrontierDepth = 0;
  /// Shared budgets/stop flag when part of a parallel run.
  SharedSearchControl *Shared = nullptr;

  // Hot-path allocation recycling (support/Arena.h). All per-explorer and
  // single-threaded: in a parallel run each worker's Explorer owns its own
  // arena and pools, so the steady state touches no shared allocator at
  // all. Pool misses are bounded by the DFS-stack high-water mark; the
  // arena stops growing once the deepest path has been visited.
  /// Recycles Decision::Procs/Sleep/SleepObjs and Checkpoint::Sleep.
  support::VectorPool<int> IntPool;
  /// Recycles checkpoint snapshots: restoring content into a pooled
  /// snapshot reuses its process/comm/trace buffers.
  support::ObjectPool<SystemSnapshot> SnapPool;
  /// Backs the per-transition footprint scratch bitsets (FpBuf).
  support::Arena FpArena;
  // Per-transition scratch, reused across every state expansion.
  std::vector<int> EnabledBuf;
  std::vector<std::pair<int, NodeId>> FrameBuf;
  /// One footprint per process, words on FpArena; sized once per run.
  std::vector<ObjSet> FpBuf;
  /// Union-find and selection scratch for schedCandidatesInto.
  std::vector<int> CompBuf;
  std::vector<int> BestMembersBuf;
  /// Current/next sleep-set scratch for the runOnce descent loop.
  std::vector<int> SleepCurBuf;
  std::vector<int> SleepObjsCurBuf;
  std::vector<int> SleepNextBuf;
  std::vector<int> SleepObjsNextBuf;
  std::vector<int> CandBuf;

  friend class ParallelExplorer;
};

} // namespace closer

#endif // CLOSER_EXPLORER_SEARCH_H
