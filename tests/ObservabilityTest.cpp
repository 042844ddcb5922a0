//===- ObservabilityTest.cpp - Stats JSON / progress / graceful stop --------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The explorer's observability surface:
//  * `--stats-json` artifacts reflect the in-memory SearchStats
//    field-for-field and carry the schema discriminator;
//  * `--progress` emits well-formed machine-scrapable stderr lines, whose
//    state counts at `--jobs 4` never decrease;
//  * a `--time-budget`-stopped run reports Interrupted=true and emits
//    resume prefixes that replay faithfully against the same program;
//  * every part of a parallel run reports its busy/parked seconds;
//  * a cached `--jobs 4` search keeps a flat memory footprint, and
//    `closer close` stays within bounds on one corpus and on a batch.
//
// The subprocess tests drive the real `closer` binary (CLOSER_BIN).
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "closing/Pipeline.h"
#include "explorer/Observability.h"
#include "explorer/Replay.h"
#include "support/CorpusGen.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace closer;

namespace {

// ---------------------------------------------------------------------------
// In-process: statsToJson / runArtifactToJson.
// ---------------------------------------------------------------------------

TEST(ObservabilityTest, StatsJsonFieldForField) {
  SearchStats S;
  // Distinct value per field so a swapped key assignment cannot cancel out.
  S.Runs = 3;
  S.Transitions = 5;
  S.TreeTransitions = 7;
  S.TransitionsReplayed = 11;
  S.TransitionsRestored = 13;
  S.StatesVisited = 17;
  S.Deadlocks = 19;
  S.Terminations = 23;
  S.AssertionViolations = 29;
  S.Divergences = 31;
  S.RuntimeErrors = 37;
  S.DepthLimitHits = 41;
  S.SleepSetPrunes = 43;
  S.CacheHits = 67;
  S.CacheInserts = 71;
  S.CacheSaturated = 73;
  S.ReportsDropped = 53;
  S.Steals = 79;
  S.Wakeups = 83;
  S.ArenaBytes = 89;
  S.PoolFresh = 97;
  S.VisibleOpsCovered = 59;
  S.VisibleOpsTotal = 61;
  S.Completed = true;
  S.Interrupted = false;
  S.WallSeconds = 0.5;
  S.BusySeconds = 0.25;
  S.ParkedSeconds = 0.125;

  std::string J = statsToJson(S).str();
  auto field = [&](const std::string &KV) {
    EXPECT_NE(J.find(KV), std::string::npos) << KV << " missing in " << J;
  };
  field("\"runs\": 3");
  field("\"transitions\": 5");
  field("\"tree_transitions\": 7");
  field("\"transitions_replayed\": 11");
  field("\"transitions_restored\": 13");
  field("\"states_visited\": 17");
  field("\"deadlocks\": 19");
  field("\"terminations\": 23");
  field("\"assertion_violations\": 29");
  field("\"divergences\": 31");
  field("\"runtime_errors\": 37");
  field("\"depth_limit_hits\": 41");
  field("\"sleep_set_prunes\": 43");
  field("\"cache_hits\": 67");
  field("\"cache_inserts\": 71");
  field("\"cache_saturated\": 73");
  field("\"reports_dropped\": 53");
  field("\"steals\": 79");
  field("\"wakeups\": 83");
  field("\"arena_bytes\": 89");
  field("\"pool_fresh\": 97");
  field("\"visible_ops_covered\": 59");
  field("\"visible_ops_total\": 61");
  field("\"completed\": true");
  field("\"interrupted\": false");
  field("\"wall_seconds\": 0.5");
  field("\"busy_s\": 0.25");
  field("\"parked_s\": 0.125");
  // Timing stays out of the human-readable stats line.
  EXPECT_EQ(S.str().find("busy"), std::string::npos) << S.str();
  EXPECT_EQ(S.str().find("parked"), std::string::npos) << S.str();
}

// The bug-seeded two-philosopher shape: deadlock exists, small state space.
const char *DeadlockProgram = R"(
sem a(1);
sem b(1);
proc left() {
  sem_wait(a);
  sem_wait(b);
  sem_signal(b);
  sem_signal(a);
}
proc right() {
  sem_wait(b);
  sem_wait(a);
  sem_signal(a);
  sem_signal(b);
}
process l = left();
process r = right();
)";

TEST(ObservabilityTest, RunArtifactMatchesInMemoryStats) {
  DiagnosticEngine Diags;
  auto Mod = compileAndVerify(DeadlockProgram, Diags);
  ASSERT_TRUE(Mod) << Diags.str();

  SearchOptions Opts;
  Opts.MaxDepth = 30;
  SearchResult Result = explore(*Mod, Opts);
  const SearchStats &Stats = Result.Stats;
  EXPECT_TRUE(Stats.Completed);
  EXPECT_GT(Stats.Deadlocks, 0u);

  json::Value Root = runArtifactToJson(Result);
  // Compact mode nests sub-objects byte-identically to their standalone
  // serialization, so the artifact's "stats" member can be checked against
  // statsToJson of the in-memory result as a plain substring.
  std::string J = Root.str();
  EXPECT_NE(J.find(statsToJson(Stats).str()), std::string::npos) << J;
  EXPECT_NE(J.find("\"schema\": \"closer-explore-stats-v1\""),
            std::string::npos);
  EXPECT_NE(J.find("\"interrupted\": false"), std::string::npos);
  EXPECT_NE(J.find("\"kind\": \"deadlock\""), std::string::npos);
  // Reports carry the erroneous state's identity.
  EXPECT_NE(J.find("\"state_fingerprint\": "), std::string::npos);
  // Completed run: nothing to resume.
  EXPECT_NE(J.find("\"resume\": []"), std::string::npos);
  EXPECT_TRUE(Result.Resume.empty());

  // Per-worker breakdown: with the default Jobs=1 a single sequential
  // entry whose counters equal the total (only the aggregate carries the
  // run's wall clock).
  ASSERT_EQ(Result.Workers.size(), 1u);
  SearchStats Worker = Result.Workers[0];
  SearchStats Total = Stats;
  Worker.WallSeconds = Total.WallSeconds = 0;
  EXPECT_EQ(statsToJson(Worker).str(), statsToJson(Total).str());
}

TEST(ObservabilityTest, EveryPartReportsBusyAndParkedSeconds) {
  DiagnosticEngine Diags;
  // Without reduction, a tree of about 10^5 states.
  auto Mod = compileAndVerify(independentPairsProgram(3, 2), Diags);
  ASSERT_TRUE(Mod) << Diags.str();

  SearchOptions Opts;
  Opts.MaxDepth = 60;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  Opts.Jobs = 2;
  SearchResult R = explore(*Mod, Opts);
  ASSERT_TRUE(R.Stats.Completed);

  // The seeding pass, then both workers. The seeder deals each worker its
  // own items before the threads start, but a thief may take all of a
  // late-starting worker's items first: a single worker can have driven
  // nothing, though it spent time claiming, and the workers together
  // drove the whole frontier.
  ASSERT_EQ(R.Workers.size(), 3u);
  double Busy = 0, Parked = 0;
  for (size_t I = 0; I != R.Workers.size(); ++I) {
    const SearchStats &Part = R.Workers[I];
    EXPECT_GE(Part.BusySeconds, 0.0) << "part " << I;
    EXPECT_GE(Part.ParkedSeconds, 0.0) << "part " << I;
    EXPECT_GT(Part.BusySeconds + Part.ParkedSeconds, 0.0) << "part " << I;
    Busy += Part.BusySeconds;
    Parked += Part.ParkedSeconds;
  }
  EXPECT_GT(R.Workers[0].BusySeconds, 0.0) << "the seeding pass explores";
  EXPECT_EQ(R.Workers[0].ParkedSeconds, 0.0) << "the seeder never claims";
  EXPECT_GT(R.Workers[1].BusySeconds + R.Workers[2].BusySeconds, 0.0)
      << "no worker drove an item";
  EXPECT_DOUBLE_EQ(R.Stats.BusySeconds, Busy);
  EXPECT_DOUBLE_EQ(R.Stats.ParkedSeconds, Parked);

  // One busy_s/parked_s pair in "stats" and one per workers[] entry.
  std::string J = runArtifactToJson(R).str();
  for (const char *Key : {"\"busy_s\": ", "\"parked_s\": "}) {
    size_t Count = 0;
    for (size_t At = J.find(Key); At != std::string::npos;
         At = J.find(Key, At + 1))
      ++Count;
    EXPECT_EQ(Count, 1 + R.Workers.size()) << Key << " in " << J;
  }
}

// ---------------------------------------------------------------------------
// Subprocess tests against the real binary.
// ---------------------------------------------------------------------------

std::string tempPath(const std::string &Suffix) {
  return "/tmp/closer_obs_" + std::to_string(::getpid()) + Suffix;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  ASSERT_TRUE(Out.good()) << Path;
  Out << Text;
}

std::string readAll(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Runs `Cmd` under /bin/sh, returning captured output per the caller's
/// redirections; aborts the test on popen failure.
std::string runCommand(const std::string &Cmd, int *ExitCode = nullptr) {
  std::FILE *P = ::popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr) << Cmd;
  if (!P)
    return "";
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int Status = ::pclose(P);
  if (ExitCode)
    *ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return Out;
}

/// Runs CLOSER_BIN with \p Args, output discarded, and returns the child's
/// peak resident set size in KiB (ru_maxrss, as wait4 reports it).
long childPeakRssKib(const std::vector<std::string> &Args, int &ExitCode) {
  // Build argv before forking: the child may only exec.
  std::vector<char *> Argv{const_cast<char *>(CLOSER_BIN)};
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  pid_t Pid = ::fork();
  if (Pid == 0) {
    int Null = ::open("/dev/null", O_WRONLY);
    ::dup2(Null, STDOUT_FILENO);
    ::dup2(Null, STDERR_FILENO);
    ::execv(CLOSER_BIN, Argv.data());
    ::_exit(127);
  }
  EXPECT_GT(Pid, 0) << "fork failed";
  int Status = 0;
  struct rusage Usage = {};
  if (Pid <= 0 || ::wait4(Pid, &Status, 0, &Usage) != Pid) {
    ExitCode = -1;
    return -1;
  }
  ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return Usage.ru_maxrss;
}

TEST(ObservabilityTest, ProgressLinesAreWellFormed) {
  // Far too large to exhaust within the time budget.
  std::string Src = tempPath("_progress.mc");
  writeFile(Src, independentPairsProgram(4, 4));

  for (const char *Jobs : {"1", "4"}) {
    // Capture stderr only; progress must never pollute stdout.
    std::string Cmd = std::string(CLOSER_BIN) + " explore " + Src +
                      " --open --no-por --depth 60 --max-runs 100000000" +
                      " --time-budget 0.6 --progress=0.1 --jobs " + Jobs +
                      " 2>&1 >/dev/null";
    std::string Err = runCommand(Cmd);

    size_t Lines = 0;
    unsigned long long LastStates = 0;
    std::istringstream In(Err);
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.rfind("progress:", 0) != 0)
        continue;
      ++Lines;
      for (const char *Key :
           {" t=", " states=", " states/s=", " transitions=", " trans/s=",
            " depth=", " frontier=", " runs=", " reports="})
        EXPECT_NE(Line.find(Key), std::string::npos)
            << "missing '" << Key << "' in: " << Line;
      // The monitor sums the explorers' own counters: the total is
      // positive from the first line on and never moves backwards.
      size_t At = Line.find(" states=");
      if (At == std::string::npos)
        continue;
      unsigned long long States =
          std::strtoull(Line.c_str() + At + 8, nullptr, 10);
      EXPECT_GT(States, 0u) << "--jobs " << Jobs << ": " << Line;
      EXPECT_GE(States, LastStates) << "--jobs " << Jobs << ": " << Line;
      LastStates = States;
    }
    EXPECT_GE(Lines, 2u) << "--jobs " << Jobs << "\n" << Err;
  }
  std::remove(Src.c_str());
}

TEST(ObservabilityTest, CachedParallelSearchMemoryStaysFlat) {
  // Every work item a worker starts from a shipped checkpoint rebuilds the
  // prefix that checkpoint covers as placeholder decisions. Their vectors
  // must come from the worker's pool, or releasing them there grows its
  // freelist by two vectors per placeholder, item after item. This run
  // starts thousands of work items; its peak must stay near the 16 MiB
  // state cache plus the binary. The cache's 2^21 slots hold the grid's
  // 1025^2 states without saturating, so no state is expanded twice.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // A tree-wide sanitizer build instruments the binary too, and its
  // shadow memory and free-quarantine dwarf the footprint measured here.
  GTEST_SKIP() << "peak RSS is not comparable under a sanitizer";
#endif
  std::string Src = tempPath("_rss.mc");
  writeFile(Src, semGridProgram(512));
  int Exit = -1;
  long PeakKib = childPeakRssKib(
      {"explore", Src, "--jobs", "4", "--state-cache=21", "--no-por",
       "--max-runs", "0", "--depth", "100000", "--exec", "vm",
       "--checkpoint-interval", "8"},
      Exit);
  std::remove(Src.c_str());
  EXPECT_EQ(Exit, 0);
  EXPECT_GT(PeakKib, 0);
  EXPECT_LT(PeakKib, 64 * 1024) << "peak RSS " << PeakKib / 1024 << " MiB";
}

TEST(ObservabilityTest, CloseCorpusPeakMemoryStaysBounded) {
  // `closer close` builds the AST and the CFG from packed records with
  // interned names (a 56-byte Expr, a 96-byte CfgNode), keeps def-use and
  // V_I sets in flat arrays, and holds at most one procedure twice:
  // lowering frees each procedure's body once its CFG exists, and the
  // close frees each open procedure and its analyses once the procedure
  // is closed. On this 1.4 MB corpus its peak measured 49.7 MiB; the bound
  // adds ~10%. Lowering that keeps every body until the module is built
  // (74 MiB), a close that keeps the open module until the closed one is
  // complete (67 MiB), or both (70 MiB) fail it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "peak RSS is not comparable under a sanitizer";
#endif
  std::string Src = tempPath("_corpus.mc");
  int Exit = -1;
  runCommand(std::string(CLOSER_BIN) +
                 " gen-corpus --procs 1024 --stmts 64 --seed 1 > " + Src,
             &Exit);
  ASSERT_EQ(Exit, 0);
  long PeakKib = childPeakRssKib({"close", Src}, Exit);
  std::remove(Src.c_str());
  EXPECT_EQ(Exit, 0);
  EXPECT_GT(PeakKib, 0);
  EXPECT_LT(PeakKib, 55 * 1024) << "peak RSS " << PeakKib / 1024 << " MiB";
}

TEST(ObservabilityTest, BatchClosePeakMemoryStaysNearOneFile) {
  // A batch `closer close` prints each file as soon as it and the files
  // before it are closed, and keeps no module past its file's rendering,
  // so a four-file `--jobs 1` batch peaks near one file's close: measured
  // 1.08x one file's peak (the four sources are read up front). The bound
  // adds ~10%, so keeping every file's result until the batch is done
  // fails it: 2.9x with the open modules retained, 1.8x without.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "peak RSS is not comparable under a sanitizer";
#endif
  std::vector<std::string> Batch = {"close"};
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    CorpusConfig Config;
    Config.Procs = 1024;
    Config.StmtsPerProc = 64;
    Config.Seed = Seed;
    Batch.push_back(tempPath("_g" + std::to_string(Seed) + ".mc"));
    writeFile(Batch.back(), generateCorpusSource(Config));
  }
  int Exit = -1;
  long OneKib = childPeakRssKib({"close", Batch[1]}, Exit);
  EXPECT_EQ(Exit, 0);
  Batch.insert(Batch.end(), {"--jobs", "1"});
  long BatchKib = childPeakRssKib(Batch, Exit);
  EXPECT_EQ(Exit, 0);
  for (size_t I = 1; I != 5; ++I)
    std::remove(Batch[I].c_str());
  EXPECT_GT(OneKib, 0);
  EXPECT_LT(BatchKib, OneKib * 117 / 100)
      << "batch " << BatchKib / 1024 << " MiB, one file " << OneKib / 1024
      << " MiB";
}

TEST(ObservabilityTest, TimeBudgetStopsWithResumablePrefixes) {
  std::string Source = independentPairsProgram(4, 4);
  std::string Src = tempPath("_budget.mc");
  std::string Json = tempPath("_budget.json");
  writeFile(Src, Source);

  int Exit = -1;
  std::string Cmd = std::string(CLOSER_BIN) + " explore " + Src +
                    " --open --no-por --depth 60 --max-runs 100000000" +
                    " --time-budget 0.3 --jobs 2 --stats-json " + Json +
                    " 2>/dev/null";
  std::string Out = runCommand(Cmd, &Exit);
  std::remove(Src.c_str());
  EXPECT_EQ(Exit, 0) << Out; // Error-free workload: clean exit.

  // The human-readable output announces the interruption and resume lines.
  EXPECT_NE(Out.find("(interrupted)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("replay: "), std::string::npos) << Out;

  std::string Artifact = readAll(Json);
  std::remove(Json.c_str());
  ASSERT_FALSE(Artifact.empty());
  EXPECT_NE(Artifact.find("\"schema\": \"closer-explore-stats-v1\""),
            std::string::npos);
  EXPECT_NE(Artifact.find("\"interrupted\": true"), std::string::npos);
  EXPECT_NE(Artifact.find("\"completed\": false"), std::string::npos);

  // Partial stats are real: a budget-stopped run still visited states.
  EXPECT_EQ(Artifact.find("\"states_visited\": 0,"), std::string::npos);

  // Every resume prefix must parse and replay faithfully against the same
  // program — that is what makes an interrupted run continuable.
  DiagnosticEngine Diags;
  auto Mod = compileAndVerify(Source, Diags);
  ASSERT_TRUE(Mod) << Diags.str();

  std::vector<std::string> Prefixes;
  std::istringstream In(Out);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("replay: ", 0) == 0)
      Prefixes.push_back(Line.substr(8));
  ASSERT_FALSE(Prefixes.empty());

  size_t Checked = 0;
  for (const std::string &P : Prefixes) {
    if (Checked == 16) // Replaying thousands adds nothing.
      break;
    std::vector<ReplayStep> Steps;
    ASSERT_TRUE(parseReplay(P, Steps)) << P;
    ASSERT_FALSE(Steps.empty());
    ReplayResult R = replayChoices(*Mod, Steps, SystemOptions());
    EXPECT_TRUE(R.Faithful) << "prefix did not replay: " << P;
    ++Checked;
  }
  // Each printed prefix must also appear in the artifact's resume array.
  EXPECT_NE(Artifact.find("\"" + Prefixes.front() + "\""),
            std::string::npos);
}

TEST(ObservabilityTest, JobsZeroResolvesToHardwareConcurrency) {
  std::string Src = tempPath("_jobs0.mc");
  std::string Json = tempPath("_jobs0.json");
  writeFile(Src, independentPairsProgram(2, 1));

  int Exit = -1;
  std::string Cmd = std::string(CLOSER_BIN) + " explore " + Src +
                    " --open --depth 60 --jobs 0 --stats-json " + Json +
                    " 2>/dev/null";
  runCommand(Cmd, &Exit);
  std::remove(Src.c_str());
  EXPECT_EQ(Exit, 0);

  // The artifact reports the *resolved* worker count, never the literal 0:
  // that is the contract that makes `--jobs 0` runs reproducible.
  std::string Artifact = readAll(Json);
  std::remove(Json.c_str());
  EXPECT_EQ(Artifact.find("\"jobs\": 0"), std::string::npos) << Artifact;
  unsigned HW = std::thread::hardware_concurrency();
  std::string Want = "\"jobs\": " + std::to_string(HW ? HW : 1);
  EXPECT_NE(Artifact.find(Want), std::string::npos)
      << "expected " << Want << " in " << Artifact;
}

TEST(ObservabilityTest, NegativeJobsIsRejected) {
  // A negative count exits 1 with a diagnostic naming its flag; it must
  // not be clamped, wrapped through an unsigned conversion, or looped on.
  // The removed `--hash` and `partition` aliases are diagnosed too.
  std::string Src = tempPath("_jobsneg.mc");
  writeFile(Src, independentPairsProgram(2, 1));
  const std::string F = " " + Src;
  const std::pair<std::string, std::string> Rows[] = {
      {"explore" + F + " --jobs -2", "--jobs"},
      {"explore" + F + " --depth -1", "--depth"},
      {"explore" + F + " --checkpoint-interval -1", "--checkpoint-interval"},
      {"explore" + F + " --state-cache=-4", "--state-cache"},
      {"explore" + F + " --max-runs -1", "--max-runs"},
      {"close" + F + " --jobs -2", "--jobs"},
      {"close" + F + " --partition --max-reps -1", "--max-reps"},
      {"gen-switchapp --lines -1", "--lines"},
      {"explore" + F + " --hash", "unknown option '--hash'"},
      {"partition" + F, "unknown command 'partition'"},
  };
  for (const auto &[Cmd, Named] : Rows) {
    int Exit = -1;
    std::string Out =
        runCommand(std::string(CLOSER_BIN) + " " + Cmd + " 2>&1", &Exit);
    EXPECT_EQ(Exit, 1) << Cmd << "\n" << Out;
    EXPECT_NE(Out.find(Named), std::string::npos) << Cmd << "\n" << Out;
  }
  std::remove(Src.c_str());
}

TEST(ObservabilityTest, StatsJsonOnCompletedRunReportsCompletion) {
  std::string Src = tempPath("_done.mc");
  std::string Json = tempPath("_done.json");
  writeFile(Src, independentPairsProgram(2, 1));

  int Exit = -1;
  std::string Cmd = std::string(CLOSER_BIN) + " explore " + Src +
                    " --open --depth 60 --stats-json " + Json +
                    " 2>/dev/null";
  runCommand(Cmd, &Exit);
  std::remove(Src.c_str());
  EXPECT_EQ(Exit, 0);

  std::string Artifact = readAll(Json);
  std::remove(Json.c_str());
  EXPECT_NE(Artifact.find("\"completed\": true"), std::string::npos);
  EXPECT_NE(Artifact.find("\"interrupted\": false"), std::string::npos);
  EXPECT_NE(Artifact.find("\"resume\": []"), std::string::npos);
}

} // namespace
