//===- IncrementalCloseTest.cpp - analysis cache + batch closing tests ------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The incremental-closing contract: with `--analysis-cache DIR`, a re-close
// of an edited corpus recomputes only the touched procedures' analyses, the
// emitted module is byte-identical to an uncached compile, and a damaged
// cache degrades to recomputation — never to wrong output. The batch
// contract: `closer close A B C --jobs N` is byte-identical to sequential
// per-module runs. `--dedup-toss` schedules the dedup-toss pass at most
// once. Library-level tests drive closer::compile(); subprocess tests
// drive the real binary (CLOSER_BIN).
//
//===----------------------------------------------------------------------===//

#include "closing/Pipeline.h"

#include "cfg/CfgPrinter.h"
#include "dataflow/AnalysisCache.h"
#include "support/CorpusGen.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

using namespace closer;
namespace fs = std::filesystem;

namespace {

/// Fresh per-test temp directory, removed on destruction.
struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Tag) {
    Path = fs::temp_directory_path() /
           ("closer_test_" + Tag + "_" + std::to_string(::getpid()));
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  std::string str() const { return Path.string(); }
};

std::string emitted(const CompileResult &R) {
  EXPECT_TRUE(R.ok()) << R.Diags.str();
  return R.M ? emitModuleSource(*R.M) : std::string();
}

CompileResult compileCorpus(const std::string &Src, const std::string &Dir) {
  PipelineOptions Opts;
  Opts.AnalysisCacheDir = Dir;
  return compile(Src, Opts);
}

TEST(AnalysisCacheTest, ColdWarmTweakCounters) {
  TempDir Dir("cache_counters");
  CorpusConfig Config;
  Config.Procs = 6; // Deliberately not a multiple of the env-instantiation
  Config.StmtsPerProc = 24; // stride (regression: the generator looped
  Config.Seed = 3;          // forever on Procs % 4 != 0).
  std::string Src = generateCorpusSource(Config);

  // Cold: everything computed, nothing restored, entries written.
  CompileResult Cold = compileCorpus(Src, Dir.str());
  std::string ColdOut = emitted(Cold);
  EXPECT_TRUE(Cold.Cache.Enabled);
  EXPECT_EQ(Cold.Cache.AliasRestored, 0u);
  EXPECT_EQ(Cold.Cache.DefUseRestored, 0u);
  EXPECT_EQ(Cold.Cache.TaintRestored, 0u);
  EXPECT_GT(Cold.Cache.EntriesSaved, 0u);
  EXPECT_EQ(Cold.Analyses.Alias.Computed, 1u);
  EXPECT_EQ(Cold.Analyses.DefUse.Computed, 6u);
  EXPECT_EQ(Cold.Analyses.EnvTaint.Computed, 1u);

  // Warm: everything restored, nothing recomputed, identical output.
  CompileResult Warm = compileCorpus(Src, Dir.str());
  EXPECT_EQ(emitted(Warm), ColdOut);
  EXPECT_EQ(Warm.Cache.AliasRestored, 1u);
  EXPECT_EQ(Warm.Cache.DefUseRestored, 6u);
  EXPECT_EQ(Warm.Cache.TaintRestored, 1u);
  EXPECT_EQ(Warm.Analyses.Alias.Computed, 0u);
  EXPECT_EQ(Warm.Analyses.DefUse.Computed, 0u);
  EXPECT_EQ(Warm.Analyses.EnvTaint.Computed, 0u);

  // One-procedure edit: only the touched procedure's def-use graph is
  // recomputed (the edit is pure arithmetic, so the alias *result* is
  // unchanged and the other procedures' entries still match). Taint is
  // interprocedural and must recompute.
  Config.TweakProc = 2;
  std::string Tweaked = generateCorpusSource(Config);
  ASSERT_NE(Tweaked, Src);
  CompileResult Incr = compileCorpus(Tweaked, Dir.str());
  std::string IncrOut = emitted(Incr);
  EXPECT_EQ(Incr.Cache.DefUseRestored, 5u);
  EXPECT_EQ(Incr.Analyses.DefUse.Computed, 1u);
  EXPECT_EQ(Incr.Analyses.DefUse.Reused, 5u);
  EXPECT_EQ(Incr.Cache.TaintRestored, 0u);
  EXPECT_EQ(Incr.Analyses.EnvTaint.Computed, 1u);

  // The incremental result must equal a from-scratch compile of the
  // edited source.
  EXPECT_EQ(IncrOut, emitted(compile(Tweaked)));
}

TEST(AnalysisCacheTest, CachedOutputMatchesUncached) {
  TempDir Dir("cache_bytes");
  for (uint64_t Seed : {11u, 12u, 13u}) {
    CorpusConfig Config;
    Config.Procs = 5;
    Config.StmtsPerProc = 20;
    Config.Seed = Seed;
    std::string Src = generateCorpusSource(Config);
    std::string Plain = emitted(compile(Src));
    EXPECT_EQ(emitted(compileCorpus(Src, Dir.str())), Plain) << Seed;
    // Warm path too.
    EXPECT_EQ(emitted(compileCorpus(Src, Dir.str())), Plain) << Seed;
  }
}

TEST(AnalysisCacheTest, CorruptedEntriesRecomputeCleanly) {
  TempDir Dir("cache_corrupt");
  CorpusConfig Config;
  Config.Procs = 4;
  Config.StmtsPerProc = 16;
  std::string Src = generateCorpusSource(Config);
  std::string Want = emitted(compileCorpus(Src, Dir.str()));

  // Truncate or garble every cache entry in turn; each damaged entry must
  // fail deserialization and fall back to computing, with output intact.
  for (const auto &Entry : fs::directory_iterator(Dir.Path)) {
    std::ofstream(Entry.path(), std::ios::trunc) << "garbage v0\n1 2 3";
  }
  CompileResult R = compileCorpus(Src, Dir.str());
  EXPECT_EQ(emitted(R), Want);
  EXPECT_EQ(R.Cache.AliasRestored, 0u);
  EXPECT_EQ(R.Cache.DefUseRestored, 0u);
  EXPECT_EQ(R.Cache.TaintRestored, 0u);
  EXPECT_EQ(R.Analyses.Alias.Computed, 1u);
  EXPECT_EQ(R.Analyses.DefUse.Computed, 4u);
}

TEST(AnalysisCacheTest, UncreatableDirDegradesToDisabled) {
  TempDir Dir("cache_nodir");
  // A path *under a regular file* can never be created.
  std::string File = (Dir.Path / "plain_file").string();
  std::ofstream(File) << "x";
  CorpusConfig Config;
  Config.Procs = 3;
  Config.StmtsPerProc = 12;
  std::string Src = generateCorpusSource(Config);
  CompileResult R = compileCorpus(Src, File + "/sub");
  // Must compile normally, just without cache traffic.
  EXPECT_EQ(emitted(R), emitted(compile(Src)));
  EXPECT_EQ(R.Cache.EntriesSaved, 0u);
  EXPECT_EQ(R.Cache.AliasRestored, 0u);
}

TEST(AnalysisCacheTest, FingerprintsSeparateProcsAndModules) {
  CorpusConfig A;
  A.Procs = 4;
  A.StmtsPerProc = 16;
  CorpusConfig B = A;
  B.TweakProc = 1;
  DiagnosticEngine Diags;
  std::unique_ptr<Module> OpenA =
      compileAndVerify(generateCorpusSource(A), Diags);
  std::unique_ptr<Module> OpenB =
      compileAndVerify(generateCorpusSource(B), Diags);
  ASSERT_TRUE(OpenA && OpenB) << Diags.str();
  const Module &Ma = *OpenA;
  const Module &Mb = *OpenB;
  EXPECT_NE(fingerprintModule(Ma), fingerprintModule(Mb));
  ASSERT_EQ(Ma.Procs.size(), Mb.Procs.size());
  for (size_t P = 0; P != Ma.Procs.size(); ++P) {
    bool Touched = static_cast<int>(P) == B.TweakProc;
    EXPECT_EQ(fingerprintProc(Ma.Procs[P]) != fingerprintProc(Mb.Procs[P]),
              Touched)
        << "proc " << P;
  }
}

//===----------------------------------------------------------------------===//
// Batch mode (subprocess, real binary)
//===----------------------------------------------------------------------===//

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

std::string readAll(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Blanks every volatile field of a close-stats artifact (wall times and
/// the job count) so runs can be compared for semantic identity.
std::string scrubVolatile(std::string Json) {
  for (const char *Key : {"\"wall_seconds\":", "\"jobs\":"}) {
    size_t At = 0;
    while ((At = Json.find(Key, At)) != std::string::npos) {
      size_t Start = At + std::string(Key).size();
      size_t End = Start;
      while (End < Json.size() && Json[End] != ',' && Json[End] != '}' &&
             Json[End] != '\n')
        ++End;
      Json.replace(Start, End - Start, "X");
      At = Start;
    }
  }
  return Json;
}

TEST(BatchCloseTest, JobsOutputByteIdenticalToSequential) {
  TempDir Dir("batch");
  // A randomized corpus of modules with different shapes (different seeds
  // and sizes), some of which share nothing but the pass registry.
  std::vector<std::string> Files;
  for (int I = 0; I != 4; ++I) {
    CorpusConfig Config;
    Config.Procs = 3 + I;
    Config.StmtsPerProc = 10 + 4 * I;
    Config.Seed = 100 + static_cast<uint64_t>(I);
    std::string Path = (Dir.Path / ("m" + std::to_string(I) + ".mc")).string();
    std::ofstream(Path) << generateCorpusSource(Config);
    Files.push_back(Path);
  }
  std::string Bin = CLOSER_BIN;
  std::string AllFiles;
  for (const std::string &F : Files)
    AllFiles += " " + F;

  // Sequential reference: one run per file, concatenated.
  std::string SeqOut, SeqErr;
  for (const std::string &F : Files) {
    std::string ErrFile = (Dir.Path / "seq.err").string();
    SeqOut += runCommand(Bin + " close " + F + " 2>" + ErrFile);
    SeqErr += readAll(ErrFile);
  }

  for (const char *Jobs : {"1", "4"}) {
    std::string ErrFile = (Dir.Path / "batch.err").string();
    std::string StatsFile = (Dir.Path / "batch.json").string();
    int Exit = -1;
    std::string Out =
        runCommand(Bin + " close" + AllFiles + " --jobs " + Jobs +
                       " --stats-json " + StatsFile + " 2>" + ErrFile,
                   &Exit);
    EXPECT_EQ(Exit, 0) << readAll(ErrFile);
    EXPECT_EQ(Out, SeqOut) << "--jobs " << Jobs;
    EXPECT_EQ(readAll(ErrFile), SeqErr) << "--jobs " << Jobs;
    std::string Stats = readAll(StatsFile);
    EXPECT_NE(Stats.find("closer-close-batch-stats-v1"), std::string::npos);
  }

  // The stats artifacts of --jobs 1 and --jobs 4 are identical once wall
  // times and the job count are scrubbed.
  std::string S1 = (Dir.Path / "s1.json").string();
  std::string S4 = (Dir.Path / "s4.json").string();
  runCommand(Bin + " close" + AllFiles + " --jobs 1 --stats-json " + S1 +
             " >/dev/null 2>/dev/null");
  runCommand(Bin + " close" + AllFiles + " --jobs 4 --stats-json " + S4 +
             " >/dev/null 2>/dev/null");
  EXPECT_EQ(scrubVolatile(readAll(S1)), scrubVolatile(readAll(S4)));
}

TEST(BatchCloseTest, BatchSharesAnalysisCacheSafely) {
  TempDir Dir("batch_cache");
  // All workers write to one cache directory concurrently; reruns must
  // restore. The modules are distinct, so entries never collide.
  std::vector<std::string> Files;
  for (int I = 0; I != 3; ++I) {
    CorpusConfig Config;
    Config.Procs = 4;
    Config.StmtsPerProc = 12;
    Config.Seed = 200 + static_cast<uint64_t>(I);
    std::string Path = (Dir.Path / ("c" + std::to_string(I) + ".mc")).string();
    std::ofstream(Path) << generateCorpusSource(Config);
    Files.push_back(Path);
  }
  std::string Bin = CLOSER_BIN;
  std::string AllFiles;
  for (const std::string &F : Files)
    AllFiles += " " + F;
  std::string CacheDir = (Dir.Path / "cache").string();
  std::string Cmd = Bin + " close" + AllFiles + " --jobs 4" +
                    " --analysis-cache " + CacheDir + " 2>/dev/null";
  std::string Cold = runCommand(Cmd);
  std::string Warm = runCommand(Cmd);
  EXPECT_EQ(Cold, Warm);
  EXPECT_FALSE(Cold.empty());
  // The warm run restored at least the per-proc def-use graphs.
  std::string StatsFile = (Dir.Path / "warm.json").string();
  runCommand(Bin + " close" + AllFiles + " --jobs 4 --analysis-cache " +
             CacheDir + " --stats-json " + StatsFile +
             " >/dev/null 2>/dev/null");
  std::string Stats = readAll(StatsFile);
  EXPECT_NE(Stats.find("\"defuse_restored\": 4"), std::string::npos) << Stats;
}

TEST(CloseCliTest, DedupTossFlagKeepsAnExplicitDedupPass) {
  // `--dedup-toss` adds the dedup-toss pass right after close only when
  // the pipeline has none yet: a second one would fail validation, since a
  // transform pass runs at most once.
  TempDir Dir("dedup_flag");
  CorpusConfig Config; // gen-corpus 16 x 40, seed 1: one duplicate toss.
  Config.Procs = 16;
  Config.StmtsPerProc = 40;
  Config.Seed = 1;
  std::string Path = (Dir.Path / "dups.mc").string();
  std::ofstream(Path) << generateCorpusSource(Config);
  std::string Close = std::string(CLOSER_BIN) + " close " + Path;
  int FlagExit = -1, BothExit = -1;
  std::string Flag = runCommand(Close + " --dedup-toss 2>/dev/null", &FlagExit);
  std::string Both = runCommand(
      Close + " --passes close,dedup-toss --dedup-toss 2>/dev/null",
      &BothExit);
  EXPECT_EQ(FlagExit, 0);
  EXPECT_EQ(BothExit, 0);
  EXPECT_FALSE(Flag.empty());
  EXPECT_EQ(Both, Flag);
}

} // namespace
