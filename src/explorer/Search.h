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
/// closer::explore() is the only way to run a search: one runOnce/backtrack
/// loop at every job count, whose `Jobs = 1` run is the reference the
/// parallel runs must match. closer::collectTraces() runs the same
/// single-job search with a leaf-trace sink attached. The depth-first
/// worker and the work-sharing search underneath are internal
/// (explorer/ParallelSearch.h).
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_EXPLORER_SEARCH_H
#define CLOSER_EXPLORER_SEARCH_H

#include "explorer/Replay.h"
#include "explorer/StateCache.h"
#include "runtime/System.h"
#include "support/Diagnostics.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace closer {

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
  /// Stop at the first deadlock, assertion violation, divergence or
  /// runtime error.
  bool StopOnFirstError = false;
  /// Maximum error reports retained.
  size_t MaxReports = 64;
  /// Worker threads (1 = one sequential worker, no threads; 0 = auto:
  /// explore() resolves it to the hardware concurrency and records the
  /// resolved count in SearchResult::Options).
  size_t Jobs = 1;
  /// Number of decisions the sequential seeding pass expands before
  /// handing subtrees to workers (0 = derive from Jobs). Ignored when Jobs
  /// is 1: the seeding pass then is the whole search.
  size_t SplitDepth = 0;
  /// Keep a System snapshot every this many global states along the DFS
  /// stack and, on backtrack, restore the nearest one instead of
  /// re-executing the whole choice prefix (0 = pure stateless search, the
  /// paper's baseline). Any value yields bit-identical tree-shaped stats;
  /// only Transitions/TransitionsReplayed/TransitionsRestored move.
  size_t CheckpointInterval = 0;
  //===--------------------------------------------------------------------===//
  // Observability & graceful degradation
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
  /// Pre-compiled bytecode for Vm/Both modes, e.g. from the lower-bytecode
  /// pass. When null, explore() compiles the module once; either way the
  /// immutable result is shared by every worker.
  std::shared_ptr<const vm::CompiledModule> VmCode;
  SystemOptions Runtime;

  bool stateCacheEnabled() const { return StateCacheBits != 0; }

  /// Centralized option validation: every constraint the search assumes.
  /// The CLI prints any errors and exits 1 before a search starts;
  /// explore() merely clamps, so library callers who skip validation still
  /// get a defined (if adjusted) run. Warnings describe adjustments
  /// explore() applies automatically (e.g. sleep sets off under caching).
  std::vector<Diagnostic> validate() const;
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
  /// module — a test-adequacy metric for the paper's "lightweight testing
  /// platform" use (§6).
  uint64_t VisibleOpsCovered = 0;
  uint64_t VisibleOpsTotal = 0;
  // Scheduler and allocator traffic (all zero for sequential, non-pooled
  // runs). Not tree-shaped: these vary run to run with thread timing, so
  // str() prints them only when nonzero and the equivalence tests exclude
  // them.
  /// Work items this worker stole from another worker's deque.
  uint64_t Steals = 0;
  /// Returns from a park: times this worker, idle with every deque empty,
  /// was woken by a donation, the drain or a stop.
  uint64_t Wakeups = 0;
  /// Bytes of the worker's footprint scratch (one word row per process),
  /// allocated once and reused by every state expansion.
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
  /// Seconds this part spent exploring: a worker's time driving the items
  /// it claimed, the seeding pass's whole duration. Summed in Stats. Not
  /// part of str(), like WallSeconds.
  double BusySeconds = 0;
  /// Seconds a worker spent claiming items (own deque, stealing, parked);
  /// 0 for the seeding pass. Summed in Stats. Not part of str().
  double ParkedSeconds = 0;

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
  /// normalizations (sleep sets off under caching, Jobs resolved) — what a
  /// run artifact should record as its self-description.
  SearchOptions Options;
  SearchStats Stats;
  /// Deduplicated, shallowest first (ties broken by the choice sequence),
  /// so the order is independent of worker scheduling.
  std::vector<ErrorReport> Reports;
  /// Per-part statistics: element 0 is the seeding pass (the whole search
  /// when Jobs is 1), then one entry per worker thread. Summing the
  /// counters reproduces Stats; each part's coverage and Completed describe
  /// that part alone, and only Stats carries Interrupted and WallSeconds.
  std::vector<SearchStats> Workers;
  /// For stopped runs (time budget, SIGINT, or a MaxRuns/MaxStates/
  /// StopOnFirstError stop): replayable choice prefixes of the abandoned
  /// subtrees — every worker's in-flight path plus the unclaimed work
  /// items — deduplicated and deepest first. Empty for completed runs.
  std::vector<std::vector<ReplayStep>> Resume;
  /// Visible-operation call sites the search never exercised, as
  /// (procedure name, node id) pairs — the blind spots of the search.
  std::vector<std::pair<std::string, NodeId>> Uncovered;
};

/// The search entry point for every execution mode: one sequential worker
/// (Jobs == 1), work-sharing parallel workers (Jobs > 1), and cached
/// execution (stateCacheEnabled()), including the combination
/// `--state-cache --jobs N` (one concurrent fingerprint table shared by
/// all workers). Normalizations applied (see SearchOptions::validate() for
/// the corresponding warnings): sleep sets are disabled when caching is
/// on; Jobs == 0 means one worker per hardware thread.
SearchResult explore(const Module &Mod, const SearchOptions &Options);

/// The distinct visible traces of the leaves a search reached (deadlocks,
/// terminations, depth-limit and sleep-set cut-offs, cache hits), with the
/// statistics of that search.
struct TraceSet {
  std::vector<Trace> Traces;
  SearchStats Stats;
};

/// Runs explore()'s single-job search with a leaf-trace sink attached and
/// returns the first \p MaxTraces distinct traces in DFS order — the
/// harness of the trace-inclusion (Theorem 6) property tests. Options.Jobs
/// is ignored: the leaf order is the sequential DFS order.
TraceSet collectTraces(const Module &Mod, const SearchOptions &Options,
                       size_t MaxTraces);

} // namespace closer

#endif // CLOSER_EXPLORER_SEARCH_H
