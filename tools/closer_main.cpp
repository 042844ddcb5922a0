//===- closer_main.cpp - Command-line driver --------------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The `closer` tool: the prototype described in the paper's abstract ("a
// prototype tool for automatically closing open programs"), plus the
// VeriSoft-style explorer as a subcommand.
//
//   closer close <file.mc>              close and print MiniC source
//   closer cfg <file.mc> [proc]         print closed CFG listings
//   closer dot <file.mc> <proc>         Graphviz of a closed procedure
//   closer explore <file.mc> [options]  close (if open) and explore
//   closer naive <file.mc> -D <n>       naive most-general-env closing
//   closer gen-switchapp [options]      emit the case-study application
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgPrinter.h"
#include "closing/Pipeline.h"
#include "explorer/Observability.h"
#include "explorer/Replay.h"
#include "explorer/Search.h"
#include "support/CommandLine.h"
#include "support/CorpusGen.h"
#include "support/Json.h"
#include "switchapp/SwitchApp.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

using namespace closer;

namespace {

void usage() {
  std::fprintf(stderr, R"(usage:
  closer close <file.mc>... [--coarse] [--dedup-toss] [--partition]
               [--max-reps N] [--passes LIST] [--print-after PASS]
               [--verify-each] [--stats-json FILE] [--jobs N]
      Close the program with its most general environment; print MiniC.
      Runs the pass pipeline parse, sema, lower, verify, close by
      default. --partition inserts the section 7 input-domain
      partitioning (simplify range-classified inputs, close the rest)
      as a pre-pass, so partition -> close runs in one process over one
      module. --passes takes a comma-separated module-pass list
      (partition, close, dedup-toss, naive-close, interface, verify)
      replacing the default tail. --verify-each re-verifies the module
      after every pass and names the offending pass on failure.
      --dedup-toss runs the dedup-toss pass right after close (also on
      cfg, dot, explore and replay). --print-after PASS dumps the module
      source to stderr after each run of PASS. --stats-json FILE writes
      a closer-close-stats-v1 artifact: per-pass wall times, analysis
      cache computed/reused counters and all transform stats.
      Several input files compile as one batch sharing the pass registry;
      --jobs N closes them on N worker threads. Output order and bytes
      are identical to closing each file in its own process, and
      --stats-json then writes a closer-close-batch-stats-v1 artifact
      with one per-module stats block per input.
  closer cfg <file.mc> [proc]
      Print the closed control-flow graph listing(s).
  closer dot <file.mc> <proc>
      Print Graphviz dot for one closed procedure.
  closer explore <file.mc> [--depth N] [--max-runs N] [--no-por]
                 [--state-cache[=BITS]] [--stop-on-error] [--env-domain N]
                 [--open] [--jobs N] [--checkpoint-interval K]
                 [--exec interp|vm|both] [--stats-json FILE]
                 [--progress[=SECS]] [--time-budget SECS]
      Close (unless --open) and systematically explore the state space.
      --exec selects the transition engine: the tree-walking interpreter
      (default), the direct-threaded bytecode VM (same results, faster),
      or `both` — a differential oracle that runs every transition on
      both engines and aborts on any observable divergence.
      --jobs N > 1 explores disjoint subtrees on N worker threads over
      per-worker work-stealing deques; --jobs 0 uses one worker per
      hardware thread (the resolved count lands in --stats-json).
      --checkpoint-interval K snapshots the system every K states so
      backtracking restores instead of re-executing prefixes (default 8;
      0 = pure stateless search). Results are identical for any K.
      --state-cache[=BITS] prunes revisited states with a bounded
      concurrent fingerprint table of 2^BITS slots (default 20, ~8 MiB).
      Legal with any --jobs count: workers share one table, so a state
      expanded anywhere is pruned everywhere. When the table fills, the
      search keeps going without inserting (sound; reported as
      cache-saturated). Sleep sets are disabled under caching (pruning
      by a path-local sleep set is unsound against a cross-path cache).
      --stats-json FILE writes the full run statistics (per-worker
      breakdowns, wall clock, reports, resume prefixes) as JSON.
      --progress[=SECS] prints a progress line to stderr every SECS
      seconds (default 2). --time-budget SECS stops the search
      cooperatively after SECS seconds; an interrupted run (time budget
      or Ctrl-C) still prints partial stats plus resumable `replay:`
      prefixes for the abandoned subtrees.
  closer naive <file.mc> -D <n>
      Close with the naive explicit environment over domain [0,n]; print.
  closer replay <file.mc> "<choices>" [--open] [--env-domain N]
      Re-execute a recorded choice sequence (the `replay:` line of an
      explore report) and print the resulting trace.
  closer interface <file.mc>
      Inventory the program's environment interface and how far
      environment data spreads (what a manual stub would have to cover).
  closer gen-switchapp [--lines N] [--trunks N] [--events N] [--variants N]
                       [--bug]
      Emit the synthetic call-processing application source.
  closer gen-corpus [--procs N] [--stmts N] [--seed S]
      Emit a deterministic open multi-procedure corpus (same flags, same
      bytes).
)");
}

/// Which flags exist and whether they consume a value — the distinction
/// parseArgs needs to keep positionals after boolean flags (see
/// support/CommandLine.h).
const FlagSpec &closerFlagSpec() {
  static const FlagSpec Spec = {
      // Boolean flags.
      {"--coarse", FlagArity::Bool},
      {"--dedup-toss", FlagArity::Bool},
      {"--partition", FlagArity::Bool},
      {"--verify-each", FlagArity::Bool},
      {"--no-por", FlagArity::Bool},
      {"--stop-on-error", FlagArity::Bool},
      {"--open", FlagArity::Bool},
      {"--bug", FlagArity::Bool},
      // Value-taking flags.
      {"--depth", FlagArity::Value},
      {"--max-runs", FlagArity::Value},
      {"--env-domain", FlagArity::Value},
      {"--jobs", FlagArity::Value},
      {"--checkpoint-interval", FlagArity::Value},
      {"--max-reps", FlagArity::Value},
      {"-D", FlagArity::Value},
      {"--lines", FlagArity::Value},
      {"--trunks", FlagArity::Value},
      {"--events", FlagArity::Value},
      {"--variants", FlagArity::Value},
      {"--stats-json", FlagArity::Value},
      {"--time-budget", FlagArity::Value},
      {"--exec", FlagArity::Value},
      {"--passes", FlagArity::Value},
      {"--print-after", FlagArity::Value},
      {"--procs", FlagArity::Value},
      {"--stmts", FlagArity::Value},
      {"--seed", FlagArity::Value},
      // `--progress` alone uses the default interval; `--progress=0.5`
      // overrides it. It never consumes the next argument.
      {"--progress", FlagArity::OptionalValue},
      // `--state-cache` alone uses the default table size;
      // `--state-cache=24` overrides the bit count.
      {"--state-cache", FlagArity::OptionalValue},
  };
  return Spec;
}

/// Checks that the subcommand got between \p Min and \p Max positional
/// arguments. Too few prints the usage and returns false; a surplus is
/// recorded for argsOk() to diagnose, like a flag the subcommand never
/// reads.
bool positionalsOk(const Args &A, size_t Min, size_t Max) {
  if (A.Positional.size() < Min) {
    usage();
    return false;
  }
  if (A.Positional.size() > Max)
    A.fail("unexpected argument '" + A.Positional[Max] + "'");
  return true;
}

/// Prints the accumulated Args diagnostic (if any), including a flag the
/// subcommand never read; true when clean. Call once the subcommand has
/// read all of its options.
bool argsOk(const Args &A) {
  A.rejectUnread();
  if (A.Error.empty())
    return true;
  std::fprintf(stderr, "error: %s\n", A.Error.c_str());
  return false;
}

/// Reads \p Path whole into one string; exits 1 when it does not open, or
/// opens but cannot be read (a directory).
std::string readFile(const char *Path) {
  std::FILE *In = std::fopen(Path, "rb");
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path);
    std::exit(1);
  }
  std::string Text;
  struct stat St;
  if (fstat(fileno(In), &St) == 0 && S_ISREG(St.st_mode))
    Text.reserve(static_cast<size_t>(St.st_size));
  // Read to EOF rather than trusting the size, so pipes work too.
  char Buf[1 << 16];
  while (size_t N = std::fread(Buf, 1, sizeof Buf, In))
    Text.append(Buf, N);
  bool Failed = std::ferror(In) != 0;
  std::fclose(In);
  if (Failed) {
    std::fprintf(stderr, "error: cannot read '%s'\n", Path);
    std::exit(1);
  }
  return Text;
}

/// `--dedup-toss`: schedules the dedup-toss pass right after close, when
/// \p Passes has a close and no dedup-toss yet.
void scheduleDedupToss(const Args &A, std::vector<std::string> &Passes) {
  if (!A.has("--dedup-toss") ||
      std::find(Passes.begin(), Passes.end(), "dedup-toss") != Passes.end())
    return;
  auto Close = std::find(Passes.begin(), Passes.end(), "close");
  if (Close != Passes.end())
    Passes.insert(Close + 1, "dedup-toss");
}

/// The default close pipeline with --coarse and --dedup-toss applied: what
/// `cfg`, `dot`, `explore` and `replay` run before their own work.
PipelineOptions closeOptionsFromArgs(const Args &A) {
  PipelineOptions Options;
  Options.Closing.Taint.CoarseMode = A.has("--coarse");
  Options.Passes = {"close"};
  scheduleDedupToss(A, Options.Passes);
  return Options;
}

/// Splits a comma-separated --passes list; empty segments are dropped.
std::vector<std::string> splitPassList(const std::string &List) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : List) {
    if (C == ',') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

/// The pipeline knobs every pipeline-backed subcommand shares; a missing
/// or empty --passes list runs the subcommand's \p DefaultTail, and
/// \p PartitionFlag accepts `--partition`, which schedules partition first.
/// A pass's own knob is read only when the pass is scheduled (--max-reps
/// for partition, -D for naive-close), so one that no pass reads is
/// diagnosed as unread.
PipelineOptions pipelineOptionsFromArgs(const Args &A,
                                        std::vector<std::string> DefaultTail,
                                        bool PartitionFlag = false) {
  PipelineOptions Opts;
  Opts.Closing.Taint.CoarseMode = A.has("--coarse");
  Opts.VerifyEach = A.has("--verify-each");
  Opts.PrintAfter = A.strOf("--print-after", "");
  Opts.Passes = splitPassList(A.strOf("--passes", ""));
  if (Opts.Passes.empty())
    Opts.Passes = std::move(DefaultTail);
  auto Scheduled = [&Opts](const char *Name) {
    return std::find(Opts.Passes.begin(), Opts.Passes.end(), Name) !=
           Opts.Passes.end();
  };
  if (PartitionFlag && A.has("--partition") && !Scheduled("partition"))
    Opts.Passes.insert(Opts.Passes.begin(), "partition");
  scheduleDedupToss(A, Opts.Passes);
  if (Scheduled("partition"))
    Opts.Partition.MaxRepresentatives =
        static_cast<size_t>(A.countOf("--max-reps", 16));
  if (Scheduled("naive-close"))
    Opts.Naive.DomainBound = A.intOf("-D", 1);
  return Opts;
}

/// The --print-after captures of \p R, as printed to stderr.
std::string renderCaptures(const CompileResult &R) {
  std::string Out;
  for (const auto &[Pass, Text] : R.Printed)
    Out += "// --- module after pass '" + Pass + "' ---\n" + Text;
  return Out;
}

/// Runs compile(), dumps --print-after captures to stderr and writes the
/// artifact to \p StatsJsonPath unless it is empty (also for failed runs —
/// the per-pass timings show where the pipeline stopped). Exits on failure.
CompileResult compileFileOrDie(const std::string &Path,
                               const PipelineOptions &Opts,
                               const std::string &StatsJsonPath) {
  CompileResult R = compile(readFile(Path.c_str()), Opts);
  std::fputs(renderCaptures(R).c_str(), stderr);
  if (!StatsJsonPath.empty()) {
    std::string Err;
    if (!json::writeJsonFile(StatsJsonPath, compileArtifactToJson(R),
                             &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      std::exit(1);
    }
  }
  if (!R.ok()) {
    std::fprintf(stderr, "%s", R.Diags.str().c_str());
    std::exit(1);
  }
  return R;
}

bool pipelineHasPass(const CompileResult &R, const char *Name) {
  const std::vector<std::string> &P = R.EffectiveOptions.Passes;
  return std::find(P.begin(), P.end(), Name) != P.end();
}

/// One file's `closer close` output, rendered so that its modules can be
/// freed before it is printed.
struct ClosedFile {
  std::string Captures; ///< --print-after dumps: stderr, before Source.
  std::string Source;   ///< The closed program: stdout.
  std::string Notes;    ///< Diagnostics or the summary lines: stderr, last.
  json::Value Stats;    ///< Its stats block, when --stats-json asked.
  bool Ok = false;
};

/// Renders \p R exactly as the historical single-file `closer close`
/// printed it: --print-after captures and diagnostics to stderr, the closed
/// source to stdout, the transform summary comments to stderr. Batch mode
/// prints every file's rendering in input order, so the combined output is
/// byte-identical to closing each file in sequence.
ClosedFile renderClose(const CompileResult &R, bool WantStats) {
  ClosedFile F;
  F.Captures = renderCaptures(R);
  if (WantStats)
    F.Stats = compileArtifactToJson(R);
  F.Ok = R.ok();
  if (!F.Ok) {
    F.Notes = R.Diags.str();
    return F;
  }
  F.Source = emitModuleSource(*R.M);
  auto N = [](size_t V) { return std::to_string(V); };
  if (pipelineHasPass(R, "partition"))
    F.Notes += "// partitioned " + N(R.Partition.InputsPartitioned) +
               " input(s) + " + N(R.Partition.ParamsPartitioned) +
               " parameter(s) (" + N(R.Partition.RepresentativesTotal) +
               " representatives), " + N(R.Partition.InputsLeftOpen) +
               " left for elimination\n";
  if (pipelineHasPass(R, "close"))
    F.Notes += "// closed: " + N(R.Closing.NodesBefore) + " -> " +
               N(R.Closing.NodesAfter) + " nodes, " +
               N(R.Closing.TossNodesInserted) + " toss node(s), " +
               N(R.Closing.ParamsRemoved) + " parameter(s) removed, " +
               N(R.Closing.EnvCallsRemoved) + " env call(s) eliminated\n";
  return F;
}

int cmdClose(const Args &A) {
  if (!positionalsOk(A, 1, SIZE_MAX))
    return 1;
  PipelineOptions Opts =
      pipelineOptionsFromArgs(A, {"close"}, /*PartitionFlag=*/true);
  size_t Jobs = static_cast<size_t>(std::max(A.countOf("--jobs", 1), 1L));
  std::string StatsJsonPath = A.strOf("--stats-json", "");
  if (!argsOk(A))
    return 1;

  // Batch compile: every positional file runs the same pipeline (one pass
  // registry, one options struct) inside this process. Reads happen up
  // front on the main thread so a missing file dies with the usual
  // diagnostic. A worker renders each file's output as soon as it is
  // compiled, freeing its modules, and the main thread prints the
  // renderings in input order as they arrive, so a batch holds about one
  // compile per worker in memory.
  const std::vector<std::string> &Files = A.Positional;
  std::vector<std::string> Sources;
  Sources.reserve(Files.size());
  for (const std::string &File : Files)
    Sources.push_back(readFile(File.c_str()));

  bool WantStats = !StatsJsonPath.empty();
  auto CloseOne = [&](size_t I) {
    return renderClose(compile(Sources[I], Opts), WantStats);
  };
  size_t Workers = std::min(Jobs, Files.size());
  std::vector<std::promise<ClosedFile>> Done(Files.size());
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (size_t W = 0; Workers > 1 && W != Workers; ++W)
    Pool.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < Files.size();)
        Done[I].set_value(CloseOne(I));
    });

  bool AnyFailed = false;
  std::vector<json::Value> Stats;
  for (size_t I = 0; I != Files.size(); ++I) {
    ClosedFile F = Pool.empty() ? CloseOne(I) : Done[I].get_future().get();
    std::fputs(F.Captures.c_str(), stderr);
    std::fputs(F.Source.c_str(), stdout);
    std::fputs(F.Notes.c_str(), stderr);
    AnyFailed |= !F.Ok;
    Stats.push_back(std::move(F.Stats));
  }
  for (std::thread &T : Pool)
    T.join();

  if (!StatsJsonPath.empty()) {
    json::Value Doc;
    if (Files.size() == 1) {
      Doc = std::move(Stats[0]);
    } else {
      Doc = json::Value::object();
      Doc.add("schema", "closer-close-batch-stats-v1");
      Doc.add("jobs", static_cast<uint64_t>(Jobs));
      json::Value Modules = json::Value::array();
      for (size_t I = 0; I != Files.size(); ++I) {
        json::Value Entry = std::move(Stats[I]);
        Entry.add("file", Files[I]);
        Modules.push(std::move(Entry));
      }
      Doc.add("modules", std::move(Modules));
    }
    std::string Err;
    if (!json::writeJsonFile(StatsJsonPath, Doc, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
  }
  return AnyFailed ? 1 : 0;
}

int cmdCfg(const Args &A) {
  if (!positionalsOk(A, 1, 2))
    return 1;
  PipelineOptions Opts = closeOptionsFromArgs(A);
  if (!argsOk(A))
    return 1;
  CompileResult R = compileFileOrDie(A.Positional[0], Opts, "");
  if (A.Positional.size() > 1) {
    const ProcCfg *Proc = R.M->findProc(A.Positional[1]);
    if (!Proc) {
      std::fprintf(stderr, "error: no procedure '%s'\n",
                   A.Positional[1].c_str());
      return 1;
    }
    std::printf("%s", printCfg(*Proc).c_str());
    return 0;
  }
  std::printf("%s", printModule(*R.M).c_str());
  return 0;
}

int cmdDot(const Args &A) {
  if (!positionalsOk(A, 2, 2))
    return 1;
  PipelineOptions Opts = closeOptionsFromArgs(A);
  if (!argsOk(A))
    return 1;
  CompileResult R = compileFileOrDie(A.Positional[0], Opts, "");
  const ProcCfg *Proc = R.M->findProc(A.Positional[1]);
  if (!Proc) {
    std::fprintf(stderr, "error: no procedure '%s'\n",
                 A.Positional[1].c_str());
    return 1;
  }
  std::printf("%s", cfgToDot(*Proc).c_str());
  return 0;
}

/// Set by the SIGINT handler; polled by the explorer's monitor thread so a
/// Ctrl-C drains workers and still reports partial results. A second
/// Ctrl-C falls back to the default handler (hard kill).
std::atomic<bool> GInterruptRequested{false};

extern "C" void closerOnSigint(int) {
  GInterruptRequested.store(true, std::memory_order_relaxed);
  std::signal(SIGINT, SIG_DFL);
}

int cmdExplore(const Args &A) {
  if (!positionalsOk(A, 1, 1))
    return 1;
  bool Open = A.has("--open");
  PipelineOptions CloseOpts;
  if (!Open)
    CloseOpts = closeOptionsFromArgs(A);

  SearchOptions Opts;
  Opts.MaxDepth = static_cast<size_t>(A.countOf("--depth", 60));
  Opts.MaxRuns = static_cast<uint64_t>(A.countOf("--max-runs", 1000000));
  Opts.StopOnFirstError = A.has("--stop-on-error");
  Opts.Runtime.EnvDomainBound = A.intOf("--env-domain", 1);
  if (A.has("--no-por")) {
    Opts.UsePersistentSets = false;
    Opts.UseSleepSets = false;
  }
  if (A.has("--state-cache")) {
    const std::string *V = A.value("--state-cache");
    long Bits = (V && !V->empty()) ? A.countOf("--state-cache", 0)
                                   : StateCache::DefaultBits;
    Opts.StateCacheBits = static_cast<unsigned>(Bits);
  }
  // 0 = auto: explore() resolves it to the hardware concurrency and the
  // resolved count is what the stats-json artifact records.
  Opts.Jobs = static_cast<size_t>(A.countOf("--jobs", 1));
  std::string Exec = A.strOf("--exec", "interp");
  if (Exec == "interp") {
    Opts.Exec = ExecMode::Interp;
  } else if (Exec == "vm") {
    Opts.Exec = ExecMode::Vm;
  } else if (Exec == "both") {
    Opts.Exec = ExecMode::Both;
  } else {
    std::fprintf(stderr,
                 "error: unknown --exec mode '%s' (expected interp, vm or "
                 "both)\n",
                 Exec.c_str());
    return 1;
  }
  // The library defaults to the paper's pure stateless search; the CLI
  // defaults to checkpointing on, since the outcome is identical and the
  // restore path is strictly faster.
  Opts.CheckpointInterval =
      static_cast<size_t>(A.countOf("--checkpoint-interval", 8));

  // Observability & graceful degradation.
  Opts.TimeBudgetSeconds = A.secondsOf("--time-budget", 0);
  if (A.has("--progress")) {
    const std::string *V = A.value("--progress");
    Opts.ProgressIntervalSeconds =
        (V && !V->empty()) ? A.secondsOf("--progress", 2.0) : 2.0;
  }
  std::string StatsJsonPath = A.strOf("--stats-json", "");
  if (!argsOk(A))
    return 1;

  std::unique_ptr<Module> ToExplore;
  if (Open) {
    DiagnosticEngine Diags;
    ToExplore = compileAndVerify(readFile(A.Positional[0].c_str()), Diags);
    if (!ToExplore) {
      std::fprintf(stderr, "%s", Diags.str().c_str());
      return 1;
    }
  } else {
    // --stats-json names the explore artifact, not the close's.
    CompileResult R = compileFileOrDie(A.Positional[0], CloseOpts, "");
    ToExplore = std::move(R.M);
    if (R.Closing.EnvCallsRemoved || R.Closing.ParamsRemoved)
      std::fprintf(stderr, "note: program was open; closed automatically\n");
  }

  // One centralized options check instead of scattered ad-hoc clamps: all
  // diagnostics are printed, and any error stops the run before it starts.
  bool BadOpts = false;
  for (const Diagnostic &D : Opts.validate()) {
    std::fprintf(stderr, "%s\n", D.str().c_str());
    BadOpts |= D.Kind == DiagKind::Error;
  }
  if (BadOpts)
    return 1;

  Opts.ExternalStop = &GInterruptRequested;
  std::signal(SIGINT, closerOnSigint);

  SearchResult Result = explore(*ToExplore, Opts);
  const SearchStats &Stats = Result.Stats;
  std::signal(SIGINT, SIG_DFL);

  std::printf("%s\n", Stats.str().c_str());
  if (Stats.VisibleOpsCovered < Stats.VisibleOpsTotal) {
    std::printf("uncovered visible operations:\n");
    for (const auto &[Proc, Node] : Result.Uncovered)
      std::printf("  %s node N%u\n", Proc.c_str(), Node);
  }
  if (Stats.Interrupted) {
    std::printf("interrupted after %.1fs; deepest in-flight prefixes "
                "(resume by hand via `closer explore` / `closer replay`):\n",
                Stats.WallSeconds);
    for (const std::vector<ReplayStep> &P : Result.Resume)
      std::printf("replay: %s\n", replayToString(P).c_str());
  }
  for (const ErrorReport &Rep : Result.Reports)
    std::printf("\n%s", Rep.str().c_str());

  if (!StatsJsonPath.empty()) {
    std::string Err;
    if (!json::writeJsonFile(StatsJsonPath, runArtifactToJson(Result),
                             &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
  }
  return (Stats.Deadlocks || Stats.AssertionViolations ||
          Stats.RuntimeErrors)
             ? 2
             : 0;
}

int cmdNaive(const Args &A) {
  if (!positionalsOk(A, 1, 1))
    return 1;
  PipelineOptions Opts = pipelineOptionsFromArgs(A, {"naive-close"});
  std::string StatsJsonPath = A.strOf("--stats-json", "");
  if (!argsOk(A))
    return 1;
  CompileResult R = compileFileOrDie(A.Positional[0], Opts, StatsJsonPath);
  std::printf("%s", emitModuleSource(*R.M).c_str());
  std::fprintf(stderr,
               "// naive closing over [0,%lld]: %zu env input(s), %zu env "
               "output(s), %zu wrapper(s)\n",
               static_cast<long long>(Opts.Naive.DomainBound),
               R.Naive.EnvInputsRewritten, R.Naive.EnvOutputsRewritten,
               R.Naive.WrappersSynthesized);
  return 0;
}

int cmdInterface(const Args &A) {
  if (!positionalsOk(A, 1, 1))
    return 1;
  PipelineOptions Opts = pipelineOptionsFromArgs(A, {"interface"});
  std::string StatsJsonPath = A.strOf("--stats-json", "");
  if (!argsOk(A))
    return 1;
  CompileResult R = compileFileOrDie(A.Positional[0], Opts, StatsJsonPath);
  if (!R.Interface) {
    std::fprintf(stderr, "error: pipeline ran no interface pass\n");
    return 1;
  }
  std::printf("%s", R.Interface->str().c_str());
  return R.Interface->isClosed() ? 0 : 3;
}

int cmdReplay(const Args &A) {
  if (!positionalsOk(A, 2, 2))
    return 1;
  std::vector<ReplayStep> Steps;
  if (!parseReplay(A.Positional[1], Steps)) {
    std::fprintf(stderr, "error: malformed choice sequence\n");
    return 1;
  }

  bool Open = A.has("--open");
  PipelineOptions CloseOpts;
  if (!Open)
    CloseOpts = closeOptionsFromArgs(A);
  SystemOptions SysOpts;
  SysOpts.EnvDomainBound = A.intOf("--env-domain", 1);
  if (!argsOk(A))
    return 1;

  std::unique_ptr<Module> Mod;
  if (Open) {
    DiagnosticEngine Diags;
    Mod = compileAndVerify(readFile(A.Positional[0].c_str()), Diags);
    if (!Mod) {
      std::fprintf(stderr, "%s", Diags.str().c_str());
      return 1;
    }
  } else {
    Mod = std::move(compileFileOrDie(A.Positional[0], CloseOpts, "").M);
  }
  ReplayResult R = replayChoices(*Mod, Steps, SysOpts);
  std::printf("%s", traceToString(R.TraceOut).c_str());
  if (!R.Violations.empty())
    std::printf("=> %zu assertion violation(s)\n", R.Violations.size());
  if (R.Error)
    std::printf("=> %s\n", R.Error.str().c_str());
  switch (R.Final) {
  case GlobalStateKind::Deadlock:
    std::printf("=> deadlock\n");
    break;
  case GlobalStateKind::Termination:
    std::printf("=> termination\n");
    break;
  case GlobalStateKind::HasEnabled:
    std::printf("=> transitions still enabled\n");
    break;
  }
  if (!R.Faithful)
    std::printf("warning: choice sequence did not fit this program "
                "exactly\n");
  return 0;
}

int cmdGenCorpus(const Args &A) {
  if (!positionalsOk(A, 0, 0))
    return 1;
  CorpusConfig Config;
  Config.Procs = static_cast<int>(A.countOf("--procs", 8));
  Config.StmtsPerProc = static_cast<int>(A.countOf("--stmts", 32));
  Config.Seed = static_cast<uint64_t>(A.intOf("--seed", 11));
  if (!argsOk(A))
    return 1;
  std::printf("%s", generateCorpusSource(Config).c_str());
  return 0;
}

int cmdGenSwitchApp(const Args &A) {
  if (!positionalsOk(A, 0, 0))
    return 1;
  SwitchAppConfig Config;
  Config.NumLines = static_cast<int>(A.countOf("--lines", 3));
  Config.NumTrunks = static_cast<int>(A.countOf("--trunks", 2));
  Config.EventsPerLine = static_cast<int>(A.countOf("--events", 2));
  Config.HandlerVariants = static_cast<int>(A.countOf("--variants", 1));
  Config.SeedTrunkLeakBug = A.has("--bug");
  if (!argsOk(A))
    return 1;
  std::printf("%s", generateSwitchAppSource(Config).c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  std::string Cmd = argv[1];
  Args A = parseArgs(argc, argv, 2, closerFlagSpec());
  if (!A.Error.empty()) {
    std::fprintf(stderr, "error: %s\n", A.Error.c_str());
    usage();
    return 1;
  }
  if (Cmd == "close")
    return cmdClose(A);
  if (Cmd == "cfg")
    return cmdCfg(A);
  if (Cmd == "dot")
    return cmdDot(A);
  if (Cmd == "explore")
    return cmdExplore(A);
  if (Cmd == "naive")
    return cmdNaive(A);
  if (Cmd == "replay")
    return cmdReplay(A);
  if (Cmd == "interface")
    return cmdInterface(A);
  if (Cmd == "gen-switchapp")
    return cmdGenSwitchApp(A);
  if (Cmd == "gen-corpus")
    return cmdGenCorpus(A);
  std::fprintf(stderr, "error: unknown command '%s'\n", Cmd.c_str());
  usage();
  return 1;
}
