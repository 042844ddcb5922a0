//===- bench_statespace.cpp - Explorer throughput series ---------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// Throughput of the explorer's backtracking, caching, transition-engine and
// scheduler layers, written to BENCH_statespace.json. Each series also
// asserts its determinism contract (tree-shaped stats independent of the
// checkpoint interval, the engine and the job count) and exits nonzero
// when it breaks:
//
//   deep_K0, deep_K4             stateless vs checkpointed backtracking
//   cached_grid_uncached_capped  the grid without a state cache (capped)
//   vm_deep_*, vm_grid_*         interpreter vs bytecode VM
//   switchapp_interp, _vm        the section 6 stand-in, both engines
//   steal_grid_j1, steal_grid_jN cached grid, 1 vs N work-stealing workers
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "explorer/Search.h"
#include "switchapp/SwitchApp.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace closer;

namespace {

/// Runs one exploration through the closer::explore() façade and reports
/// wall-clock seconds alongside the stats.
double timedExplore(const Module &Mod, const SearchOptions &Opts,
                    SearchStats &Out) {
  auto T0 = std::chrono::steady_clock::now();
  Out = explore(Mod, Opts).Stats;
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
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
      .num("transitions_per_sec", safeRate(Stats.TreeTransitions, Seconds))
      .num("executed_transitions_per_sec",
           safeRate(Stats.Transitions, Seconds));
}

/// Work-stealing scheduler series (steal_grid): the cached grid workload
/// at j=1 and j=min(nproc, 4) workers (j=2 on a single-core box, purely
/// for the counter plumbing — scripts/check.sh applies the speedup gate
/// only when real parallelism exists). One j1 sample swings ±30% on a
/// shared host, so the series runs three alternating j1/jN pairs and each
/// row records every pair's states/sec and their median, which the gate
/// reads. The row's other fields describe its median run. Beyond
/// throughput, the rows carry the scheduler/allocator counters:
///
///  * steals / wakeups — total scheduler traffic, plus a per-worker steal
///    breakdown so load imbalance is visible, not just averaged away;
///  * arena_bytes / pool_fresh — upstream-allocator traffic. The
///    zero-steady-state-allocation contract says that once the snapshot
///    and vector pools warm up, expanding a state touches no global
///    allocator: fresh pool constructions are bounded by the DFS stack's
///    high-water mark (plus retained checkpoints), which is orders of
///    magnitude below the state count on this workload. Enforced here as
///    pool_fresh * 50 < states on every sequential run, not eyeballed.
///
/// Tree-shaped stats must agree between j1 and jN in every pair. Returns
/// nonzero on gate failure. Also runnable standalone (`bench_statespace
/// --steal-only`), which is how scripts/check.sh drives it without paying
/// for the full bench.
int runStealGridSeries(BenchJson &Json) {
  const int GridIters = 512, Pairs = 3;
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
              "--checkpoint-interval 8, work-stealing scheduler, %d "
              "alternating j1/j%d pairs\n\n",
              GridIters, GridIters, Pairs, JN);
  std::printf("%-18s %12s %10s %10s %12s %14s\n", "variant", "states",
              "steals", "wakeups", "pool-fresh", "states/sec");
  struct Sample {
    SearchResult R;
    double Seconds;
  };
  std::vector<Sample> Samples[2]; // j1, jN; one per pair, in run order.
  for (int Pair = 1; Pair <= Pairs; ++Pair)
    for (int Side = 0; Side != 2; ++Side) {
      SearchOptions Opts = GridOpts;
      Opts.Jobs = Side ? JN : 1;
      auto T0 = std::chrono::steady_clock::now();
      SearchResult R = explore(*Grid, Opts);
      auto T1 = std::chrono::steady_clock::now();
      double Sec = std::chrono::duration<double>(T1 - T0).count();
      const SearchStats &S = R.Stats;
      std::printf("pair %d steal j=%-3zu %12llu %10llu %10llu %12llu "
                  "%14.0f\n",
                  Pair, Opts.Jobs,
                  static_cast<unsigned long long>(S.StatesVisited),
                  static_cast<unsigned long long>(S.Steals),
                  static_cast<unsigned long long>(S.Wakeups),
                  static_cast<unsigned long long>(S.PoolFresh),
                  safeRate(S.StatesVisited, Sec));
      if (!S.Completed || S.CacheSaturated || S.DepthLimitHits) {
        std::fprintf(stderr, "steal grid run violated the determinism "
                             "contract preconditions!\n");
        return 1;
      }
      if (Side == 0 && S.PoolFresh * 50 >= S.StatesVisited) {
        std::fprintf(stderr,
                     "steady-state allocation gate failed: pool_fresh=%llu "
                     "vs states=%llu — expansion is hitting the global "
                     "allocator\n",
                     static_cast<unsigned long long>(S.PoolFresh),
                     static_cast<unsigned long long>(S.StatesVisited));
        return 1;
      }
      if (Side == 1) {
        const SearchStats &Seq = Samples[0].back().R.Stats;
        if (S.StatesVisited != Seq.StatesVisited ||
            S.TreeTransitions != Seq.TreeTransitions ||
            S.CacheInserts != Seq.CacheInserts) {
          std::fprintf(stderr, "steal grid tree stats diverged between "
                               "jobs=1 and jobs=%d in pair %d!\n",
                       JN, Pair);
          return 1;
        }
      }
      Samples[Side].push_back({std::move(R), Sec});
    }

  for (const std::vector<Sample> &Side : Samples) {
    // Every sample explores the same states, so the median rate is the
    // median-time sample's.
    std::vector<const Sample *> ByTime;
    for (const Sample &X : Side)
      ByTime.push_back(&X);
    std::sort(ByTime.begin(), ByTime.end(),
              [](const Sample *A, const Sample *B) {
                return A->Seconds < B->Seconds;
              });
    const Sample &Median = *ByTime[ByTime.size() / 2];
    const SearchStats &S = Median.R.Stats;
    std::string ByWorker;
    for (size_t W = 0; W != Median.R.Workers.size(); ++W) {
      if (W)
        ByWorker += ',';
      ByWorker += std::to_string(Median.R.Workers[W].Steals);
    }
    BenchJson::Record &Row =
        Json.record("steal_grid_j" + std::to_string(Median.R.Options.Jobs))
            .str("exec", execName(Median.R.Options.Exec))
            .count("checkpoint_interval", Median.R.Options.CheckpointInterval)
            .count("jobs", Median.R.Options.Jobs)
            .count("state_cache_bits", Median.R.Options.StateCacheBits)
            .count("states", S.StatesVisited)
            .count("tree_transitions", S.TreeTransitions)
            .count("cache_inserts", S.CacheInserts)
            .count("completed", S.Completed ? 1 : 0)
            .count("steals", S.Steals)
            .count("wakeups", S.Wakeups)
            .count("arena_bytes", S.ArenaBytes)
            .count("pool_fresh", S.PoolFresh)
            .str("steals_by_worker", ByWorker)
            .num("median_seconds", Median.Seconds)
            .num("median_states_per_sec",
                 safeRate(S.StatesVisited, Median.Seconds));
    for (size_t I = 0; I != Side.size(); ++I)
      Row.num("pair" + std::to_string(I + 1) + "_states_per_sec",
              safeRate(Side[I].R.Stats.StatesVisited, Side[I].Seconds));
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

  // The deep grid workload without a state cache: (2 * Iters + 1)^2
  // distinct states, each reachable along combinatorially many
  // interleavings, so the uncached search tree is exponential. This
  // budget-capped row records that baseline; the steal_grid series below
  // runs the same grid cached to completion.
  const int GridIters = 512;
  std::printf("grid series: sem grid %d x %d (2 procs, shared semaphore), "
              "no POR, --checkpoint-interval 8, no state cache\n\n",
              GridIters, GridIters);
  auto Grid = benchCompile(semGridProgram(GridIters));
  SearchOptions GridOpts;
  GridOpts.MaxDepth = uint64_t(1) << 24;
  GridOpts.MaxRuns = 0; // Run to exhaustion; the cache keeps it small.
  GridOpts.UsePersistentSets = false;
  GridOpts.UseSleepSets = false;
  GridOpts.CheckpointInterval = 8;
  std::printf("%-18s %12s %12s %14s\n", "variant", "states", "seconds",
              "states/sec");
  {
    SearchOptions Opts = GridOpts;
    Opts.MaxRuns = 100000; // Uncached the tree is exponential: cap, report.
    SearchStats S;
    double Sec = timedExplore(*Grid, Opts, S);
    std::printf("grid uncached      %12llu %12.3f %14.0f  (capped)\n\n",
                static_cast<unsigned long long>(S.StatesVisited), Sec,
                safeRate(S.StatesVisited, Sec));
    emitExploreRecord(Json, "cached_grid_uncached_capped", S, Opts, Sec);
  }

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

  // The section 6 stand-in end to end: `gen-switchapp --lines 4 --trunks 2`,
  // closed, then explored at depth 40 with the CLI's defaults (checkpoint
  // interval 8, persistent and sleep sets, the 1M-run budget, which runs
  // out). Replays and restores dominate here, so the rows measure the
  // whole explore loop rather than the engine alone; executed
  // transitions per second is the figure ROADMAP tracks.
  {
    SwitchAppConfig Config;
    Config.NumLines = 4;
    Config.NumTrunks = 2;
    CompileResult Closed = compile(generateSwitchAppSource(Config));
    if (!Closed.ok()) {
      std::fprintf(stderr, "switchapp failed to compile:\n%s\n",
                   Closed.Diags.str().c_str());
      return 1;
    }
    SearchOptions Opts;
    Opts.MaxDepth = 40;
    Opts.MaxRuns = 1000000;
    Opts.CheckpointInterval = 8;
    std::printf("switchapp series: lines=4 trunks=2, closed, depth 40, "
                "checkpoint interval 8, POR and sleep sets, 1M-run "
                "budget\n\n");
    std::printf("%-18s %12s %14s %12s %16s\n", "variant", "states",
                "transitions", "seconds", "transitions/sec");
    SearchStats InterpStats;
    for (ExecMode Mode : {ExecMode::Interp, ExecMode::Vm}) {
      Opts.Exec = Mode;
      SearchStats S;
      double Sec = timedExplore(*Closed.M, Opts, S);
      std::printf("switchapp %-8s %12llu %14llu %12.3f %16.0f\n",
                  execName(Mode),
                  static_cast<unsigned long long>(S.StatesVisited),
                  static_cast<unsigned long long>(S.Transitions), Sec,
                  safeRate(S.Transitions, Sec));
      emitExploreRecord(Json, std::string("switchapp_") + execName(Mode), S,
                        Opts, Sec);
      if (Mode == ExecMode::Interp) {
        InterpStats = S;
      } else if (EngineStatsDiverge(S, InterpStats) ||
                 S.SleepSetPrunes != InterpStats.SleepSetPrunes) {
        std::fprintf(stderr, "switchapp tree stats diverged between the "
                             "interpreter and the VM!\n");
        return 1;
      }
    }
    std::printf("\n");
  }

  if (runStealGridSeries(Json))
    return 1;

  return Json.write("BENCH_statespace.json") ? 0 : 1;
}
