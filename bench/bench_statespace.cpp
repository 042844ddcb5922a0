//===- bench_statespace.cpp - E3: naive env vs transformed state space ------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// Quantifies the paper's §3 argument: pairing an open system with an
// explicit most-general environment over an input domain of size D yields a
// state space that grows with D (and is infinite for the unrestricted
// environment), while the transformation's state space is independent of
// the input domain.
//
// Series reported (filter program, K = 3 environment reads):
//   naive(D)  for D in {2, 4, 8, ..., 1024}: explored states and paths
//   closed    : explored states and paths (one row, no D axis)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "envgen/NaiveClose.h"
#include "explorer/Search.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

using namespace closer;

namespace {

constexpr int FilterReads = 2;
constexpr uint64_t RunBudget = 400000;

SearchOptions exploreOptions() {
  SearchOptions Opts;
  Opts.MaxDepth = 16;
  Opts.MaxRuns = RunBudget; // The naive side explodes; cap and report.
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  return Opts;
}

/// Runs one exploration through the closer::explore() façade and reports
/// wall-clock seconds alongside the stats.
double timedExplore(const Module &Mod, const SearchOptions &Opts,
                    SearchStats &Out) {
  auto T0 = std::chrono::steady_clock::now();
  Out = explore(Mod, Opts).Stats;
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

SearchStats exploreStats(const Module &Mod) {
  return explore(Mod, exploreOptions()).Stats;
}

const char *execName(ExecMode M) {
  switch (M) {
  case ExecMode::Interp: return "interp";
  case ExecMode::Vm: return "vm";
  case ExecMode::Both: return "both";
  }
  return "?";
}

void emitExploreRecord(BenchJson &Json, const std::string &Config,
                       const SearchStats &Stats, const SearchOptions &Opts,
                       double Seconds) {
  Json.record(Config)
      .str("exec", execName(Opts.Exec))
      .count("checkpoint_interval", Opts.CheckpointInterval)
      .count("jobs", Opts.Jobs)
      .count("state_cache_bits", Opts.StateCacheBits)
      .count("states", Stats.StatesVisited)
      .count("paths", Stats.Runs)
      .count("tree_transitions", Stats.TreeTransitions)
      .count("transitions_executed", Stats.Transitions)
      .count("transitions_replayed", Stats.TransitionsReplayed)
      .count("transitions_restored", Stats.TransitionsRestored)
      .count("cache_hits", Stats.CacheHits)
      .count("cache_inserts", Stats.CacheInserts)
      .count("cache_saturated", Stats.CacheSaturated)
      .count("completed", Stats.Completed ? 1 : 0)
      .count("steals", Stats.Steals)
      .count("wakeups", Stats.Wakeups)
      .count("arena_bytes", Stats.ArenaBytes)
      .count("pool_fresh", Stats.PoolFresh)
      .num("seconds", Seconds)
      .num("states_per_sec", safeRate(Stats.StatesVisited, Seconds))
      .num("transitions_per_sec", safeRate(Stats.TreeTransitions, Seconds));
}

void BM_NaiveEnvironment(benchmark::State &State) {
  int64_t Domain = State.range(0);
  auto Open = benchCompile(filterProgram(FilterReads));
  Module Naive = naiveCloseModule(*Open, {Domain - 1});
  SearchStats Stats;
  for (auto _ : State)
    Stats = exploreStats(Naive);
  State.counters["domain"] = static_cast<double>(Domain);
  State.counters["states"] = static_cast<double>(Stats.StatesVisited);
  State.counters["paths"] = static_cast<double>(Stats.Runs);
  State.counters["transitions"] = static_cast<double>(Stats.TreeTransitions);
}
BENCHMARK(BM_NaiveEnvironment)->RangeMultiplier(4)->Range(2, 128);

void BM_TransformedClosed(benchmark::State &State) {
  CompileResult R = compile(filterProgram(FilterReads));
  if (!R.ok())
    std::abort();
  SearchStats Stats;
  for (auto _ : State)
    Stats = exploreStats(*R.M);
  State.counters["states"] = static_cast<double>(Stats.StatesVisited);
  State.counters["paths"] = static_cast<double>(Stats.Runs);
  State.counters["transitions"] = static_cast<double>(Stats.TreeTransitions);
}
BENCHMARK(BM_TransformedClosed);

/// Work-stealing scheduler series (steal_grid): the cached grid workload
/// at j=1 and j=min(nproc, 4) workers (j=2 on a single-core box, purely
/// for the counter plumbing — scripts/check.sh applies the speedup gate
/// only when real parallelism exists). Beyond throughput, the rows carry
/// the scheduler/allocator counters the scheduler layer introduced:
///
///  * steals / wakeups — total scheduler traffic, plus a per-worker steal
///    breakdown so load imbalance is visible, not just averaged away;
///  * arena_bytes / pool_fresh — upstream-allocator traffic. The
///    zero-steady-state-allocation contract says that once the snapshot
///    and vector pools warm up, expanding a state touches no global
///    allocator: fresh pool constructions are bounded by the DFS stack's
///    high-water mark (plus retained checkpoints), which is orders of
///    magnitude below the state count on this workload. Enforced here as
///    pool_fresh * 50 < states on the sequential row, not eyeballed.
///
/// Tree-shaped stats must agree between the rows (same determinism
/// contract as the cached_grid series). Returns nonzero on gate failure.
/// Also runnable standalone (`bench_statespace --steal-only`), which is
/// how scripts/check.sh drives it without paying for the full bench.
int runStealGridSeries(BenchJson &Json) {
  const int GridIters = 512;
  auto Grid = benchCompile(semGridProgram(GridIters));
  SearchOptions GridOpts;
  GridOpts.MaxDepth = uint64_t(1) << 24;
  GridOpts.MaxRuns = 0;
  GridOpts.UsePersistentSets = false;
  GridOpts.UseSleepSets = false;
  GridOpts.CheckpointInterval = 8;
  GridOpts.StateCacheBits = 23;

  unsigned HW = std::thread::hardware_concurrency();
  int JN = HW > 1 ? static_cast<int>(HW < 4 ? HW : 4) : 2;
  std::printf("steal_grid series: sem grid %d x %d, --state-cache=23 "
              "--checkpoint-interval 8, work-stealing scheduler\n\n",
              GridIters, GridIters);
  std::printf("%-18s %12s %10s %10s %12s %14s\n", "variant", "states",
              "steals", "wakeups", "pool-fresh", "states/sec");
  SearchStats SeqSteal;
  for (int Jobs : {1, JN}) {
    SearchOptions Opts = GridOpts;
    Opts.Jobs = static_cast<size_t>(Jobs);
    auto T0 = std::chrono::steady_clock::now();
    SearchResult R = explore(*Grid, Opts);
    auto T1 = std::chrono::steady_clock::now();
    double Sec = std::chrono::duration<double>(T1 - T0).count();
    const SearchStats &S = R.Stats;
    std::printf("steal j=%-9d %12llu %10llu %10llu %12llu %14.0f\n", Jobs,
                static_cast<unsigned long long>(S.StatesVisited),
                static_cast<unsigned long long>(S.Steals),
                static_cast<unsigned long long>(S.Wakeups),
                static_cast<unsigned long long>(S.PoolFresh),
                Sec > 0 ? static_cast<double>(S.StatesVisited) / Sec : 0);
    std::string ByWorker;
    for (size_t W = 0; W != R.Workers.size(); ++W)
      ByWorker += (W ? "," : "") + std::to_string(R.Workers[W].Steals);
    Json.record("steal_grid_j" + std::to_string(Jobs))
        .str("exec", execName(Opts.Exec))
        .count("checkpoint_interval", Opts.CheckpointInterval)
        .count("jobs", Opts.Jobs)
        .count("state_cache_bits", Opts.StateCacheBits)
        .count("states", S.StatesVisited)
        .count("tree_transitions", S.TreeTransitions)
        .count("cache_inserts", S.CacheInserts)
        .count("completed", S.Completed ? 1 : 0)
        .count("steals", S.Steals)
        .count("wakeups", S.Wakeups)
        .count("arena_bytes", S.ArenaBytes)
        .count("pool_fresh", S.PoolFresh)
        .str("steals_by_worker", ByWorker)
        .num("seconds", Sec)
        .num("states_per_sec", safeRate(S.StatesVisited, Sec));
    if (!S.Completed || S.CacheSaturated || S.DepthLimitHits) {
      std::fprintf(stderr, "steal grid run violated the determinism "
                           "contract preconditions!\n");
      return 1;
    }
    if (Jobs == 1) {
      SeqSteal = S;
      if (S.PoolFresh * 50 >= S.StatesVisited) {
        std::fprintf(stderr,
                     "steady-state allocation gate failed: pool_fresh=%llu "
                     "vs states=%llu — expansion is hitting the global "
                     "allocator\n",
                     static_cast<unsigned long long>(S.PoolFresh),
                     static_cast<unsigned long long>(S.StatesVisited));
        return 1;
      }
    } else if (S.StatesVisited != SeqSteal.StatesVisited ||
               S.TreeTransitions != SeqSteal.TreeTransitions ||
               S.CacheInserts != SeqSteal.CacheInserts) {
      std::fprintf(stderr, "steal grid tree stats diverged between jobs=1 "
                           "and jobs=%d!\n", JN);
      return 1;
    }
  }
  std::printf("\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  // `--steal-only`: run just the scheduler series and write its artifact —
  // the mode scripts/check.sh uses for the steal_grid gates.
  for (int A = 1; A < argc; ++A)
    if (std::string(argv[A]) == "--steal-only") {
      BenchJson Json;
      if (runStealGridSeries(Json))
        return 1;
      Json.write("BENCH_statespace_steal.json");
      return 0;
    }

  BenchJson Json;

  // Print the headline series as a table (the "figure" this regenerates).
  std::printf("E3: state-space size, naive most-general environment vs "
              "transformation\n");
  std::printf("workload: filter program, %d environment reads, full "
              "exploration (no POR)\n\n", FilterReads);
  std::printf("%-14s %12s %12s %14s\n", "variant", "states", "paths",
              "transitions");

  auto Open = benchCompile(filterProgram(FilterReads));
  for (int64_t Domain = 2; Domain <= 1024; Domain *= 2) {
    Module Naive = naiveCloseModule(*Open, {Domain - 1});
    SearchStats Stats;
    double Seconds = timedExplore(Naive, exploreOptions(), Stats);
    std::printf("naive D=%-6lld %12llu %12llu %14llu%s\n",
                static_cast<long long>(Domain),
                static_cast<unsigned long long>(Stats.StatesVisited),
                static_cast<unsigned long long>(Stats.Runs),
                static_cast<unsigned long long>(Stats.TreeTransitions),
                Stats.Completed ? "" : "  (run budget hit)");
    emitExploreRecord(Json, "naive_D" + std::to_string(Domain), Stats,
                      exploreOptions(), Seconds);
  }
  CompileResult R = compile(filterProgram(FilterReads));
  SearchStats Stats;
  double Seconds = timedExplore(*R.M, exploreOptions(), Stats);
  std::printf("%-14s %12llu %12llu %14llu\n", "closed (ours)",
              static_cast<unsigned long long>(Stats.StatesVisited),
              static_cast<unsigned long long>(Stats.Runs),
              static_cast<unsigned long long>(Stats.TreeTransitions));
  emitExploreRecord(Json, "closed", Stats, exploreOptions(), Seconds);
  std::printf("\nThe naive series grows as (D)^%d; the transformed program "
              "is domain-independent\n(2^%d branch paths, one per "
              "even/odd choice sequence).\n\n",
              FilterReads, FilterReads);

  // Checkpointed vs stateless backtracking on the deepest configuration:
  // two dining philosophers eating many meals build a state space of long
  // paths, so the stateless search's O(d^2) prefix re-execution dominates
  // and snapshot restoration pays off most. Tree-shaped stats must match
  // between the two rows; only executed/replayed/restored counts and wall
  // time may differ.
  std::printf("deep series: 2 philosophers x 6 meals, no POR — stateless "
              "(K=0)\nvs checkpointed (K=4) backtracking\n\n");
  auto Deep = benchCompile(philosophersProgram(2, 6));
  SearchOptions DeepOpts;
  DeepOpts.MaxDepth = 200;
  DeepOpts.UsePersistentSets = false;
  DeepOpts.UseSleepSets = false;
  std::printf("%-18s %12s %14s %12s %14s\n", "variant", "states",
              "transitions", "seconds", "states/sec");
  SearchStats Stateless;
  for (size_t K : {size_t{0}, size_t{4}}) {
    SearchOptions Opts = DeepOpts;
    Opts.CheckpointInterval = K;
    SearchStats S;
    double Sec = timedExplore(*Deep, Opts, S);
    std::printf("deep K=%-11zu %12llu %14llu %12.3f %14.0f\n", K,
                static_cast<unsigned long long>(S.StatesVisited),
                static_cast<unsigned long long>(S.Transitions), Sec,
                Sec > 0 ? static_cast<double>(S.StatesVisited) / Sec : 0);
    emitExploreRecord(Json, "deep_K" + std::to_string(K), S, Opts, Sec);
    if (K == 0)
      Stateless = S;
    else if (S.StatesVisited != Stateless.StatesVisited ||
             S.TreeTransitions != Stateless.TreeTransitions) {
      std::fprintf(stderr, "checkpointed tree stats diverged from "
                           "stateless!\n");
      return 1;
    }
  }
  std::printf("\n");

  // Concurrent state caching on the deep grid workload: Iters^2 distinct
  // states, each reachable along combinatorially many interleavings, so
  // the uncached search tree is exponential and only a visited-state cache
  // makes the workload feasible. One budget-capped uncached row records
  // that baseline; the cached rows run the same exploration to completion
  // sequentially and with 4 workers sharing the fingerprint table. The
  // determinism contract (ALGORITHM.md "Concurrent state caching") says
  // the tree-shaped stats of completed, unsaturated cached runs must not
  // depend on the job count — enforced here, not just eyeballed.
  const int GridIters = 512;
  std::printf("cached deep series: sem grid %d x %d (2 procs, shared "
              "semaphore), no POR\n--state-cache=23 --checkpoint-interval 8, "
              "sequential vs 4 workers\n\n",
              GridIters, GridIters);
  auto Grid = benchCompile(semGridProgram(GridIters));
  SearchOptions GridOpts;
  GridOpts.MaxDepth = uint64_t(1) << 24;
  GridOpts.MaxRuns = 0; // Run to exhaustion; the cache keeps it small.
  GridOpts.UsePersistentSets = false;
  GridOpts.UseSleepSets = false;
  GridOpts.CheckpointInterval = 8;
  std::printf("%-18s %12s %14s %12s %14s\n", "variant", "states",
              "cache-inserts", "seconds", "states/sec");
  {
    SearchOptions Opts = GridOpts;
    Opts.MaxRuns = 100000; // Uncached the tree is exponential: cap, report.
    SearchStats S;
    double Sec = timedExplore(*Grid, Opts, S);
    std::printf("grid uncached      %12llu %14s %12.3f %14.0f  (capped)\n",
                static_cast<unsigned long long>(S.StatesVisited), "-", Sec,
                Sec > 0 ? static_cast<double>(S.StatesVisited) / Sec : 0);
    emitExploreRecord(Json, "cached_grid_uncached_capped", S, Opts, Sec);
  }
  SearchStats SeqCached;
  for (int Jobs : {1, 4}) {
    SearchOptions Opts = GridOpts;
    Opts.StateCacheBits = 23;
    Opts.Jobs = Jobs;
    SearchStats S;
    double Sec = timedExplore(*Grid, Opts, S);
    std::printf("grid cached j=%-4d %12llu %14llu %12.3f %14.0f\n", Jobs,
                static_cast<unsigned long long>(S.StatesVisited),
                static_cast<unsigned long long>(S.CacheInserts), Sec,
                Sec > 0 ? static_cast<double>(S.StatesVisited) / Sec : 0);
    emitExploreRecord(Json, "cached_grid_j" + std::to_string(Jobs), S, Opts,
                      Sec);
    if (!S.Completed || S.CacheSaturated || S.DepthLimitHits) {
      std::fprintf(stderr, "cached grid run violated the determinism "
                           "contract preconditions!\n");
      return 1;
    }
    if (Jobs == 1)
      SeqCached = S;
    else if (S.StatesVisited != SeqCached.StatesVisited ||
             S.TreeTransitions != SeqCached.TreeTransitions ||
             S.CacheInserts != SeqCached.CacheInserts) {
      std::fprintf(stderr, "cached tree stats diverged between jobs=1 and "
                           "jobs=4!\n");
      return 1;
    }
  }
  std::printf("\n");

  // Transition-engine series: tree-walking interpreter vs direct-threaded
  // bytecode VM on identical workloads. The engines are interchangeable by
  // contract (ALGORITHM.md "Compiled transition execution"): every
  // tree-shaped stat must match bit-for-bit, asserted below on every bench
  // run, not just eyeballed. Two workloads bracket the engine's leverage:
  //
  //  * vm_deep — deep stateless search over transitions that carry real
  //    invisible computation (arithmetic blocks between visible ops, the
  //    shape of actual protocol handlers). Stateless backtracking
  //    re-executes prefixes, so wall time is dominated by transition
  //    evaluation and the engine difference shows at full strength.
  //  * vm_grid — the cached grid workload. Snapshot restore and
  //    fingerprinting dominate there; the rows document where the VM does
  //    *not* pay off, so the headline ratio can't be mistaken for a
  //    universal speedup.
  const int VmIters = 40, VmRounds = 30, VmGridIters = 256;
  std::printf("engine series: interpreter vs bytecode VM\nvm_deep: 2 "
              "workers x %d iterations, %d arithmetic rounds per "
              "transition, stateless, no POR\nvm_grid: sem grid %d x %d, "
              "--state-cache=23 --checkpoint-interval 8\n\n",
              VmIters, VmRounds, VmGridIters, VmGridIters);
  std::printf("%-18s %12s %14s %12s %16s\n", "variant", "states",
              "transitions", "seconds", "transitions/sec");
  auto EngineStatsDiverge = [](const SearchStats &A, const SearchStats &B) {
    return A.StatesVisited != B.StatesVisited || A.Runs != B.Runs ||
           A.TreeTransitions != B.TreeTransitions ||
           A.Transitions != B.Transitions || A.Deadlocks != B.Deadlocks ||
           A.Terminations != B.Terminations ||
           A.AssertionViolations != B.AssertionViolations ||
           A.Divergences != B.Divergences ||
           A.RuntimeErrors != B.RuntimeErrors ||
           A.DepthLimitHits != B.DepthLimitHits ||
           A.Completed != B.Completed;
  };
  double DeepRatio = 0;
  {
    auto DeepVm = benchCompile(vmComputeProgram(VmIters, VmRounds));
    SearchOptions Opts;
    Opts.MaxDepth = 400;
    Opts.MaxRuns = 4000;
    Opts.UsePersistentSets = false;
    Opts.UseSleepSets = false;
    Opts.CheckpointInterval = 0; // Stateless: replay goes through the engine.
    SearchStats InterpStats;
    double InterpSec = 0;
    for (ExecMode Mode : {ExecMode::Interp, ExecMode::Vm}) {
      Opts.Exec = Mode;
      SearchStats S;
      double Sec = timedExplore(*DeepVm, Opts, S);
      std::printf("vm_deep %-10s %12llu %14llu %12.3f %16.0f\n",
                  execName(Mode),
                  static_cast<unsigned long long>(S.StatesVisited),
                  static_cast<unsigned long long>(S.Transitions), Sec,
                  safeRate(S.TreeTransitions, Sec));
      emitExploreRecord(Json, std::string("vm_deep_") + execName(Mode), S,
                        Opts, Sec);
      if (Mode == ExecMode::Interp) {
        InterpStats = S;
        InterpSec = Sec;
      } else if (EngineStatsDiverge(S, InterpStats)) {
        std::fprintf(stderr, "vm_deep tree stats diverged between the "
                             "interpreter and the VM!\n");
        return 1;
      } else if (Sec > 0) {
        DeepRatio = InterpSec / Sec;
      }
    }
  }
  {
    auto GridVm = benchCompile(semGridProgram(VmGridIters));
    SearchOptions Opts = GridOpts;
    Opts.StateCacheBits = 23;
    SearchStats InterpStats;
    for (ExecMode Mode : {ExecMode::Interp, ExecMode::Vm}) {
      Opts.Exec = Mode;
      SearchStats S;
      double Sec = timedExplore(*GridVm, Opts, S);
      std::printf("vm_grid %-10s %12llu %14llu %12.3f %16.0f\n",
                  execName(Mode),
                  static_cast<unsigned long long>(S.StatesVisited),
                  static_cast<unsigned long long>(S.Transitions), Sec,
                  safeRate(S.TreeTransitions, Sec));
      emitExploreRecord(Json, std::string("vm_grid_") + execName(Mode), S,
                        Opts, Sec);
      if (Mode == ExecMode::Interp)
        InterpStats = S;
      else if (EngineStatsDiverge(S, InterpStats) ||
               S.CacheInserts != InterpStats.CacheInserts) {
        std::fprintf(stderr, "vm_grid tree stats diverged between the "
                             "interpreter and the VM!\n");
        return 1;
      }
    }
  }
  std::printf("\nvm_deep interpreter/VM wall-time ratio: %.2fx\n\n",
              DeepRatio);

  if (runStealGridSeries(Json))
    return 1;

  Json.write("BENCH_statespace.json");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
