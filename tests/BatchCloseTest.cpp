//===- BatchCloseTest.cpp - batch `closer close` tests ----------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The batch contract: `closer close A B C --jobs N` is byte-identical to
// sequential per-module runs. `--dedup-toss` schedules the dedup-toss pass
// at most once. Both drive the real binary (CLOSER_BIN).
//
//===----------------------------------------------------------------------===//

#include "support/CorpusGen.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

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
};

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
      Json.replace(Start, End - Start, 1, 'X');
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
    std::string Name = "m";
    Name += std::to_string(I);
    std::string Path = (Dir.Path / (Name + ".mc")).string();
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
