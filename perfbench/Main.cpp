//===- Main.cpp - The closer end-to-end benchmark program -----------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// closer_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// Generates the workload's inputs from the seed (the set-up, timed on its
// own), then runs the workload's job again and again for S seconds,
// checking every verdict against the workload's known answer.
//
//  * --trace 0 runs every untraced job in a child process, so each job
//    starts from a fresh heap as a CLI run does and has a peak resident
//    memory of its own, and prints the end-to-end metrics.
//  * --trace 1 alternates untraced jobs with traced ones (spans around
//    every phase call, see Workloads.h), then runs the per-call probe
//    (Probe.h) on the closed module, and prints the per-layer metrics.
//
// Output, one record per line: `context ...`, `workload ...`,
// `metric NAME VALUE UNIT n=SAMPLES [...]`, `fail REASON` per wrong verdict,
// `warning ...`, and last `jobs attempted=A failed=F`. Timings are medians
// over the run's samples.
//
//===----------------------------------------------------------------------===//

#include "Median.h"
#include "Probe.h"
#include "Workloads.h"

#include "vm/Bytecode.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace closer;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--smoke") {
      A.Smoke = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    const char *V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = V;
      continue;
    }
    if (Flag == "--seed")
      A.Seed = std::strtoull(V, &End, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(V, &End);
    else if (Flag == "--trace")
      A.Trace = std::strtol(V, &End, 10) != 0;
    else
      return false;
    if (End == V || *End != '\0')
      return false;
  }
  return !A.Workload.empty() && A.Seconds >= 0;
}

/// CPUs this process may run on (what `nproc` prints).
size_t cpuCount() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<size_t>(std::max(1, CPU_COUNT(&Set)));
  return 1;
}

void metric(const char *Name, double Value, const char *Unit, size_t Samples,
            const std::string &Extra = "") {
  std::printf("metric %s %.17g %s n=%zu%s\n", Name, Value, Unit, Samples,
              Extra.c_str());
}

/// Prints the median of \p Samples, with their range.
void timing(const char *Name, const std::vector<double> &Samples,
            const char *Unit) {
  if (Samples.empty())
    return;
  auto [Min, Max] = std::minmax_element(Samples.begin(), Samples.end());
  char Range[64];
  std::snprintf(Range, sizeof(Range), " min=%.6g max=%.6g", *Min, *Max);
  metric(Name, median(Samples), Unit, Samples.size(), Range);
}

/// Jobs attempted and failed, with the reason for each failure.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The first close_corpus job's emitted-source digest.
  uint64_t Digest = 0;

  void record(std::string Why, uint64_t EmittedDigest) {
    ++Attempted;
    if (Why.empty() && EmittedDigest) {
      if (!Digest)
        Digest = EmittedDigest;
      else if (Digest != EmittedDigest)
        Why = "emitted source differs from the first job's";
    }
    if (!Why.empty()) {
      ++Failed;
      std::printf("fail %s\n", Why.c_str());
    }
  }
};

double statesPerSecond(const JobResult &R) {
  return R.ExploreS > 0
             ? static_cast<double>(R.Search.Stats.StatesVisited) / R.ExploreS
             : 0;
}

//===----------------------------------------------------------------------===//
// --trace 0: end-to-end metrics
//===----------------------------------------------------------------------===//

/// What a job run in a child process sends back.
struct JobReport {
  double VerdictS = 0;
  double CloseS = 0;
  double StatesPerS = 0;
  uint64_t Digest = 0;
  char Why[512] = {}; ///< Empty when the verdict is right.
};

bool writeAll(int Fd, const void *Data, size_t Size) {
  const char *P = static_cast<const char *>(Data);
  while (Size) {
    ssize_t N = write(Fd, P, Size);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    P += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

bool readAll(int Fd, void *Data, size_t Size) {
  char *P = static_cast<char *>(Data);
  while (Size) {
    ssize_t N = read(Fd, P, Size);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    P += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

/// The child's half of runForkedJob().
JobReport runReportedJob(const Workload &W, const std::string &Source) {
  JobReport Rep;
  JobResult R = runJob(W, Source);
  std::snprintf(Rep.Why, sizeof(Rep.Why), "%s", checkVerdict(W, R).c_str());
  Rep.Digest = emittedDigest(W, R);
  Rep.VerdictS = R.VerdictS;
  Rep.StatesPerS = statesPerSecond(R);
  // A sub-millisecond compile() is timed again, for up to 50 ms, and the
  // median kept: one cold call alone would mostly measure cache misses.
  std::vector<double> Close = {R.CloseS};
  double Spent = R.CloseS;
  while (Spent + R.CloseS < 0.05 && Close.size() < 200) {
    auto T0 = Clock::now();
    CompileResult C = compile(Source, W.pipelineOptions());
    Close.push_back(secondsSince(T0));
    Spent += Close.back();
  }
  Rep.CloseS = median(Close);
  return Rep;
}

/// Runs one job in a child process, so that every job starts from a fresh
/// heap as a CLI run does and its peak resident memory is its own.
/// Returns false when the child died without reporting.
bool runForkedJob(const Workload &W, const std::string &Source,
                  JobReport &Rep, double &PeakMb) {
  int Fd[2];
  if (pipe(Fd) != 0)
    return false;
  std::fflush(stdout);
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fd[0]);
    close(Fd[1]);
    return false;
  }
  if (Pid == 0) {
    close(Fd[0]);
    JobReport Out = runReportedJob(W, Source);
    _exit(writeAll(Fd[1], &Out, sizeof(Out)) ? 0 : 1);
  }
  close(Fd[1]);
  bool Ok = readAll(Fd[0], &Rep, sizeof(Rep));
  close(Fd[0]);
  int Status = 0;
  rusage U{};
  while (wait4(Pid, &Status, 0, &U) < 0 && errno == EINTR) {
  }
  PeakMb = static_cast<double>(U.ru_maxrss) / 1024.0;
  return Ok && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

void runUntraced(const Workload &W, const std::string &Source,
                 const Args &A, Tally &Jobs) {
  std::vector<double> Verdict, Close, Rate, PeakMb;
  auto Start = Clock::now();
  do {
    JobReport Rep;
    double Peak = 0;
    if (!runForkedJob(W, Source, Rep, Peak)) {
      Jobs.record("job process died", 0);
      continue;
    }
    Jobs.record(Rep.Why, Rep.Digest);
    Verdict.push_back(Rep.VerdictS);
    Close.push_back(Rep.CloseS);
    PeakMb.push_back(Peak);
    if (W.explores())
      Rate.push_back(Rep.StatesPerS);
  } while (secondsSince(Start) < A.Seconds);

  timing("verdict_s", Verdict, "s");
  timing("close_s", Close, "s");
  timing("states_per_s", Rate, "1/s");
  timing("peak_rss_mb", PeakMb, "MB");
}

//===----------------------------------------------------------------------===//
// --trace 1: per-layer metrics
//===----------------------------------------------------------------------===//

/// Explorer time the probe's per-call costs account for, in ns: each cost
/// times the number of calls the search made, as read off its stats.
double attributedNs(const SearchResult &R, const ProbeCosts &C) {
  const SearchStats &S = R.Stats;
  const SearchOptions &O = R.Options;
  auto D = [](uint64_t V) { return static_cast<double>(V); };
  const double K = static_cast<double>(O.CheckpointInterval);
  // One enabled-set query per state a run passes through. Every run
  // starts from a reset, or with checkpoints on from a restore (nearly all
  // backtrack points lie below the first checkpoint), and takes one
  // snapshot per K executed transitions.
  double Enabled = D(S.Transitions) + D(S.Runs);
  double Resets = K > 0 ? 0 : D(S.Runs);
  double Restores = K > 0 ? D(S.Runs) : 0;
  double Snapshots = K > 0 ? D(S.Transitions) / K : 0;
  double Fingerprints = D(S.CacheHits + S.CacheInserts + S.CacheSaturated);
  // Persistent sets are computed at every fresh state that is not a leaf.
  double Por = O.UsePersistentSets
                   ? D(S.StatesVisited) - D(S.Deadlocks) - D(S.Terminations) -
                         D(S.DepthLimitHits) - D(S.CacheHits)
                   : 0;
  return D(S.Transitions) * C.ExecuteNs + Enabled * C.EnabledNs +
         Resets * C.ResetNs + Restores * C.RestoreNs +
         Snapshots * C.SnapshotNs + Fingerprints * C.FingerprintNs +
         std::max(0.0, Por) * C.PorNs + D(S.CacheInserts) * C.CacheInsertNs +
         D(S.CacheHits) * C.CacheHitNs;
}

/// Largest per-worker state count over the mean (the seeding pass, part 0
/// of a parallel run, is not a worker).
double workerImbalance(const SearchResult &R) {
  size_t First = R.Workers.size() > 1 ? 1 : 0;
  double Max = 0, Sum = 0;
  for (size_t I = First; I < R.Workers.size(); ++I) {
    double States = static_cast<double>(R.Workers[I].StatesVisited);
    Max = std::max(Max, States);
    Sum += States;
  }
  size_t Count = R.Workers.size() - First;
  return Count && Sum > 0 ? Max / (Sum / static_cast<double>(Count)) : 0;
}

void runTraced(const Workload &W, const std::string &Source, const Args &A,
               Tally &Jobs) {
  Tracer T;
  std::vector<int> Traces;
  std::vector<double> UntracedVerdict, UntracedClose, TracedVerdict;
  std::vector<TraceCounts> Counts;
  std::vector<SearchResult> Searches;
  std::vector<double> ExploreS, ExploreCpuS;
  JobResult Last;
  auto Start = Clock::now();
  do {
    {
      JobResult R = runJob(W, Source);
      Jobs.record(checkVerdict(W, R), emittedDigest(W, R));
      UntracedVerdict.push_back(R.VerdictS);
      UntracedClose.push_back(R.CloseS);
    }
    Traces.push_back(T.beginTrace());
    Counts.emplace_back();
    Last = runTracedJob(W, Source, T, Counts.back());
    Jobs.record(checkVerdict(W, Last), emittedDigest(W, Last));
    TracedVerdict.push_back(Last.VerdictS);
    if (W.explores()) {
      ExploreS.push_back(Last.ExploreS);
      ExploreCpuS.push_back(Last.ExploreCpuS);
      Searches.push_back(Last.Search);
    }
  } while (secondsSince(Start) < A.Seconds);
  if (!Last.Closed)
    return;

  auto Spans = [&](const char *Name) {
    std::vector<double> V;
    for (int Id : Traces)
      V.push_back(T.seconds(Id, Name));
    return V;
  };
  auto Phase = [&](const char *Metric, const char *Span) {
    std::vector<double> V = Spans(Span);
    metric(Metric, median(V), "s", V.size());
    return V;
  };
  const size_t N = Traces.size();
  std::vector<double> Parse = Phase("lang.parse_s", "lang.parse");
  std::vector<double> Sema = Phase("lang.sema_s", "lang.sema");
  std::vector<double> Lower = Phase("cfg.lower_s", "cfg.lower");
  std::vector<double> Verify = Phase("cfg.verify_s", "cfg.verify");
  std::vector<double> Alias = Phase("dataflow.alias_s", "dataflow.alias");
  std::vector<double> DefUse = Phase("dataflow.defuse_s", "dataflow.defuse");
  std::vector<double> Taint = Phase("dataflow.taint_s", "dataflow.taint");
  std::vector<double> Close = Phase("closing.close_s", "closing.close");
  Phase("cfg.emit_s", "cfg.emit");

  // The probe needs bytecode; close_corpus's job never lowers it, so its
  // vm.lower_s is this extra, untimed-by-the-job call.
  std::vector<double> VmLower;
  std::shared_ptr<const vm::CompiledModule> Code = Last.Bytecode;
  if (W.explores()) {
    VmLower = Spans("vm.lower");
  } else {
    auto T0 = Clock::now();
    Code = vm::compileModule(*Last.Closed);
    VmLower.push_back(secondsSince(T0));
  }
  metric("vm.lower_s", median(VmLower), "s", VmLower.size());

  std::vector<double> PerUnit, PhaseSum;
  for (size_t I = 0; I != N; ++I) {
    double Units = static_cast<double>(Counts[I].Nodes + Counts[I].DuArcs);
    double Analyze = Alias[I] + DefUse[I] + Taint[I] + Close[I];
    PerUnit.push_back(Units > 0 ? Analyze * 1e9 / Units : 0);
    PhaseSum.push_back(Parse[I] + Sema[I] + Lower[I] + Verify[I] + Analyze +
                       (W.explores() ? VmLower[I] : 0));
  }
  metric("closing.ns_per_unit", median(PerUnit), "ns", N);
  metric("closing.pipeline_overhead_s",
         median(UntracedClose) - median(PhaseSum), "s", N);
  metric("cfg.nodes", static_cast<double>(Counts.back().Nodes), "count", N);
  metric("dataflow.du_arcs", static_cast<double>(Counts.back().DuArcs),
         "count", N);
  metric("closing.toss_nodes",
         static_cast<double>(Last.Closing.TossNodesInserted), "count", N);
  metric("closing.env_calls_removed",
         static_cast<double>(Last.Closing.EnvCallsRemoved), "count", N);

  ProbeOptions PO;
  PO.Seed = A.Seed;
  PO.MaxDepth = W.searchOptions().MaxDepth;
  PO.Seconds = A.Smoke ? 0.1 : 1.0;
  ProbeCosts C = runProbe(*Last.Closed, Code, PO);
  std::string Walk = " walk-states=" + std::to_string(C.Steps);
  metric("runtime.execute_ns", C.ExecuteNs, "ns", C.Steps, Walk);
  metric("runtime.enabled_ns", C.EnabledNs, "ns", C.Steps, Walk);
  metric("runtime.reset_ns", C.ResetNs, "ns", C.Steps, Walk);
  metric("runtime.snapshot_ns", C.SnapshotNs, "ns", C.Steps, Walk);
  metric("runtime.restore_ns", C.RestoreNs, "ns", C.Steps, Walk);
  metric("runtime.fingerprint_ns", C.FingerprintNs, "ns", C.Steps, Walk);
  metric("explorer.por_ns", C.PorNs, "ns", C.Steps, Walk);
  metric("explorer.cache_insert_ns", C.CacheInsertNs, "ns", C.Steps, Walk);
  metric("explorer.cache_hit_ns", C.CacheHitNs, "ns", C.Steps, Walk);

  // Explorer, scheduler and allocator figures: medians over the traced
  // jobs' explore() calls (all zero on close_corpus, which never explores).
  const size_t E = Searches.size();
  auto Stat = [&](auto Get) {
    std::vector<double> V;
    for (const SearchResult &R : Searches)
      V.push_back(static_cast<double>(Get(R.Stats)));
    return median(V);
  };
  auto Count = [&](const char *Name, uint64_t SearchStats::*Field,
                   const char *Unit = "count") {
    metric(Name, Stat([Field](const SearchStats &S) { return S.*Field; }),
           Unit, E);
  };
  auto Ratio = [](uint64_t Num, uint64_t Den) {
    return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
  };
  metric("explorer.explore_s", median(ExploreS), "s", E);
  Count("explorer.states", &SearchStats::StatesVisited);
  Count("explorer.runs", &SearchStats::Runs);
  Count("explorer.transitions", &SearchStats::Transitions);
  metric("explorer.replay_ratio", Stat([&](const SearchStats &S) {
           return Ratio(S.TransitionsReplayed, S.Transitions);
         }),
         "ratio", E);
  Count("explorer.restored", &SearchStats::TransitionsRestored);
  Count("explorer.sleep_prunes", &SearchStats::SleepSetPrunes);
  double Lookups = Stat(
      [](const SearchStats &S) { return S.CacheHits + S.CacheInserts; });
  metric("explorer.cache_hit_ratio", Stat([&](const SearchStats &S) {
           return Ratio(S.CacheHits, S.CacheHits + S.CacheInserts);
         }),
         "ratio", E, " base=" + std::to_string(static_cast<uint64_t>(Lookups)));
  Count("explorer.cache_saturated", &SearchStats::CacheSaturated);
  std::vector<double> Share, CpuPerWall;
  for (size_t I = 0; I != E; ++I) {
    Share.push_back(ExploreS[I] > 0
                        ? attributedNs(Searches[I], C) / (ExploreS[I] * 1e9)
                        : 0);
    CpuPerWall.push_back(
        ExploreS[I] > 0
            ? ExploreCpuS[I] /
                  (ExploreS[I] * static_cast<double>(Searches[I].Options.Jobs))
            : 0);
  }
  double Attributed = median(Share);
  metric("explorer.attributed_share", Attributed, "ratio", E);
  if (Attributed > 1)
    std::printf("warning explorer.attributed_share=%.3f > 1: the probe "
                "over-attributes explore() time\n",
                Attributed);
  Count("sched.steals", &SearchStats::Steals);
  Count("sched.wakeups", &SearchStats::Wakeups);
  metric("sched.cpu_per_wall", median(CpuPerWall), "ratio", E);
  std::vector<double> Imbalance;
  for (const SearchResult &R : Searches)
    Imbalance.push_back(workerImbalance(R));
  metric("sched.worker_imbalance", median(Imbalance), "ratio", E);
  Count("support.pool_fresh", &SearchStats::PoolFresh);
  Count("support.arena_bytes", &SearchStats::ArenaBytes, "bytes");

  metric("trace.overhead_ratio",
         median(TracedVerdict) / median(UntracedVerdict), "ratio", N,
         " untraced-n=" + std::to_string(UntracedVerdict.size()));
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: closer_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--smoke]\n");
    return 2;
  }
  const size_t Nproc = cpuCount();
  std::optional<Workload> W = findWorkload(A.Workload, A.Smoke, Nproc);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s' (expected close_corpus, "
                         "switchapp_bug or grid_cached)\n",
                 A.Workload.c_str());
    return 2;
  }
#ifdef __clang__
  const char *Compiler = "clang";
#else
  const char *Compiler = "gcc";
#endif
  std::printf("context nproc=%zu jobs=%zu build=%s compiler=\"%s %s\" "
              "seed=%llu seconds=%g trace=%d smoke=%d\n",
              Nproc, W->Jobs, CLOSER_PERFBENCH_BUILD_TYPE, Compiler,
              __VERSION__,
              static_cast<unsigned long long>(A.Seed), A.Seconds,
              A.Trace ? 1 : 0, A.Smoke ? 1 : 0);
  std::printf("workload %s: %s\n", W->Name, W->describe().c_str());

  // Set-up, timed apart from every job: generate the inputs at least five
  // times (more while that takes under 0.2 s) and keep the median.
  std::string Source;
  std::vector<double> Setup;
  auto SetupStart = Clock::now();
  do {
    auto T0 = Clock::now();
    Source = W->generate(A.Seed);
    Setup.push_back(secondsSince(T0));
  } while (Setup.size() < 5 ||
           (Setup.size() < 1000 && secondsSince(SetupStart) < 0.2));

  Tally Jobs;
  if (A.Trace) {
    runTraced(*W, Source, A, Jobs);
  } else {
    timing("setup_s", Setup, "s");
    runUntraced(*W, Source, A, Jobs);
  }
  metric("failed_ratio",
         Jobs.Attempted ? static_cast<double>(Jobs.Failed) /
                              static_cast<double>(Jobs.Attempted)
                        : 1.0,
         "ratio", Jobs.Attempted);
  std::printf("jobs attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(Jobs.Attempted),
              static_cast<unsigned long long>(Jobs.Failed));
  return 0;
}
