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
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace closer;

namespace {

void usage() {
  std::fprintf(stderr, R"(usage:
  closer close <file.mc>... [--coarse] [--dedup-toss] [--partition]
               [--max-reps N] [--passes LIST] [--print-after PASS]
               [--verify-each] [--stats-json FILE] [--jobs N]
               [--analysis-cache DIR]
      Close the program with its most general environment; print MiniC.
      Runs the pass pipeline parse, sema, lower, verify, close by
      default. --partition inserts the section 7 input-domain
      partitioning (simplify range-classified inputs, close the rest)
      as a pre-pass, so partition -> close runs in one process over one
      module. --passes takes a comma-separated module-pass list
      (partition, close, dedup-toss, naive-close, interface, verify)
      replacing the default tail. --verify-each re-verifies the module
      after every pass and names the offending pass on failure.
      --print-after PASS dumps the module source to stderr after each
      run of PASS. --stats-json FILE writes a closer-close-stats-v1
      artifact: per-pass wall times, analysis cache computed/reused
      counters and all transform stats.
      Several input files compile as one batch sharing the pass registry;
      --jobs N closes them on N worker threads. Output order and bytes
      are identical to closing each file in its own process, and
      --stats-json then writes a closer-close-batch-stats-v1 artifact
      with one per-module stats block per input. --analysis-cache DIR
      persists analysis results keyed by content fingerprints, so
      re-closing an edited corpus recomputes only touched procedures
      (restored entries surface as `reused` in the stats artifact).
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
  closer gen-corpus [--procs N] [--stmts N] [--seed S] [--tweak K]
      Emit a deterministic open multi-procedure corpus (same flags, same
      bytes). --tweak K appends one pure statement to procedure K — an
      "edited corpus" differing in exactly one procedure, for exercising
      the incremental analysis cache.
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
      {"--analysis-cache", FlagArity::Value},
      {"--procs", FlagArity::Value},
      {"--stmts", FlagArity::Value},
      {"--seed", FlagArity::Value},
      {"--tweak", FlagArity::Value},
      // `--progress` alone uses the default interval; `--progress=0.5`
      // overrides it. It never consumes the next argument.
      {"--progress", FlagArity::OptionalValue},
      // `--state-cache` alone uses the default table size;
      // `--state-cache=24` overrides the bit count.
      {"--state-cache", FlagArity::OptionalValue},
  };
  return Spec;
}

/// Prints the accumulated Args diagnostic (if any); true when clean.
bool argsOk(const Args &A) {
  if (A.Error.empty())
    return true;
  std::fprintf(stderr, "error: %s\n", A.Error.c_str());
  return false;
}

std::string readFile(const char *Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path);
    std::exit(1);
  }
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

CloseResult closeFileOrDie(const std::string &Path, const Args &A) {
  ClosingOptions Options;
  Options.Taint.CoarseMode = A.has("--coarse");
  Options.DedupTosses = A.has("--dedup-toss");
  CloseResult R = closeSource(readFile(Path.c_str()), Options);
  if (!R.ok()) {
    std::fprintf(stderr, "%s", R.Diags.str().c_str());
    std::exit(1);
  }
  return R;
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

/// The pipeline knobs every pipeline-backed subcommand shares.
PipelineOptions pipelineOptionsFromArgs(const Args &A) {
  PipelineOptions Opts;
  Opts.Closing.Taint.CoarseMode = A.has("--coarse");
  Opts.Closing.DedupTosses = A.has("--dedup-toss");
  Opts.Partition.MaxRepresentatives =
      static_cast<size_t>(A.countOf("--max-reps", 16));
  Opts.Naive.DomainBound = A.intOf("-D", 1);
  Opts.VerifyEach = A.has("--verify-each");
  Opts.PrintAfter = A.strOf("--print-after", "");
  Opts.Passes = splitPassList(A.strOf("--passes", ""));
  Opts.AnalysisCacheDir = A.strOf("--analysis-cache", "");
  return Opts;
}

/// Runs compile(), dumps --print-after captures to stderr and writes the
/// --stats-json artifact (also for failed runs — the per-pass timings
/// show where the pipeline stopped). Exits on failure.
CompileResult compileFileOrDie(const std::string &Path,
                               const PipelineOptions &Opts, const Args &A) {
  CompileResult R = compile(readFile(Path.c_str()), Opts);
  for (const auto &[Pass, Text] : R.Printed)
    std::fprintf(stderr, "// --- module after pass '%s' ---\n%s",
                 Pass.c_str(), Text.c_str());
  std::string StatsJsonPath = A.strOf("--stats-json", "");
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

/// Prints one compiled module exactly as the historical single-file
/// `closer close` did: --print-after captures and diagnostics to stderr,
/// the closed source to stdout, the transform summary comments to stderr.
/// Batch mode reports every file through this in input order, so the
/// combined output is byte-identical to closing each file in sequence.
bool reportCloseResult(const CompileResult &R) {
  for (const auto &[Pass, Text] : R.Printed)
    std::fprintf(stderr, "// --- module after pass '%s' ---\n%s",
                 Pass.c_str(), Text.c_str());
  if (!R.ok()) {
    std::fprintf(stderr, "%s", R.Diags.str().c_str());
    return false;
  }
  std::printf("%s", emitModuleSource(*R.M).c_str());
  if (pipelineHasPass(R, "partition"))
    std::fprintf(stderr,
                 "// partitioned %zu input(s) + %zu parameter(s) "
                 "(%zu representatives), %zu left for elimination\n",
                 R.Partition.InputsPartitioned, R.Partition.ParamsPartitioned,
                 R.Partition.RepresentativesTotal,
                 R.Partition.InputsLeftOpen);
  if (pipelineHasPass(R, "close"))
    std::fprintf(stderr,
                 "// closed: %zu -> %zu nodes, %zu toss node(s), "
                 "%zu parameter(s) removed, %zu env call(s) eliminated\n",
                 R.Closing.NodesBefore, R.Closing.NodesAfter,
                 R.Closing.TossNodesInserted, R.Closing.ParamsRemoved,
                 R.Closing.EnvCallsRemoved);
  return true;
}

int cmdClose(const Args &A) {
  if (A.Positional.empty()) {
    usage();
    return 1;
  }
  PipelineOptions Opts = pipelineOptionsFromArgs(A);
  if (A.has("--partition")) {
    if (Opts.Passes.empty())
      Opts.Passes = {"partition", "close"};
    else if (std::find(Opts.Passes.begin(), Opts.Passes.end(),
                       "partition") == Opts.Passes.end())
      Opts.Passes.insert(Opts.Passes.begin(), "partition");
  }
  size_t Jobs = static_cast<size_t>(std::max(A.countOf("--jobs", 1), 1L));
  std::string StatsJsonPath = A.strOf("--stats-json", "");
  if (!argsOk(A))
    return 1;

  // Batch compile: every positional file runs the same pipeline (one pass
  // registry, one options struct, optionally one shared analysis-cache
  // directory) inside this process. Reads happen up front on the main
  // thread so a missing file dies with the usual diagnostic.
  const std::vector<std::string> &Files = A.Positional;
  std::vector<std::string> Sources;
  Sources.reserve(Files.size());
  for (const std::string &File : Files)
    Sources.push_back(readFile(File.c_str()));

  std::vector<CompileResult> Results(Files.size());
  size_t Workers = std::min(Jobs, Files.size());
  if (Workers <= 1) {
    for (size_t I = 0; I != Files.size(); ++I)
      Results[I] = compile(Sources[I], Opts);
  } else {
    std::atomic<size_t> Next{0};
    std::vector<std::thread> Pool;
    for (size_t W = 0; W != Workers; ++W)
      Pool.emplace_back([&] {
        for (size_t I; (I = Next.fetch_add(1)) < Files.size();)
          Results[I] = compile(Sources[I], Opts);
      });
    for (std::thread &T : Pool)
      T.join();
  }

  // Ordered reporting, independent of completion order.
  bool AnyFailed = false;
  for (const CompileResult &R : Results)
    AnyFailed |= !reportCloseResult(R);

  if (!StatsJsonPath.empty()) {
    json::Value Doc;
    if (Files.size() == 1) {
      Doc = compileArtifactToJson(Results[0]);
    } else {
      Doc = json::Value::object();
      Doc.add("schema", "closer-close-batch-stats-v1");
      Doc.add("jobs", static_cast<uint64_t>(Jobs));
      json::Value Modules = json::Value::array();
      for (size_t I = 0; I != Files.size(); ++I) {
        json::Value Entry = compileArtifactToJson(Results[I]);
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
  if (A.Positional.empty()) {
    usage();
    return 1;
  }
  CloseResult R = closeFileOrDie(A.Positional[0], A);
  if (A.Positional.size() > 1) {
    const ProcCfg *Proc = R.Closed->findProc(A.Positional[1]);
    if (!Proc) {
      std::fprintf(stderr, "error: no procedure '%s'\n",
                   A.Positional[1].c_str());
      return 1;
    }
    std::printf("%s", printCfg(*Proc).c_str());
    return 0;
  }
  std::printf("%s", printModule(*R.Closed).c_str());
  return 0;
}

int cmdDot(const Args &A) {
  if (A.Positional.size() < 2) {
    usage();
    return 1;
  }
  CloseResult R = closeFileOrDie(A.Positional[0], A);
  const ProcCfg *Proc = R.Closed->findProc(A.Positional[1]);
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
  if (A.Positional.empty()) {
    usage();
    return 1;
  }
  std::string Source = readFile(A.Positional[0].c_str());

  std::unique_ptr<Module> ToExplore;
  if (A.has("--open")) {
    DiagnosticEngine Diags;
    ToExplore = compileAndVerify(Source, Diags);
    if (!ToExplore) {
      std::fprintf(stderr, "%s", Diags.str().c_str());
      return 1;
    }
  } else {
    CloseResult R = closeFileOrDie(A.Positional[0], A);
    ToExplore = std::move(R.Closed);
    if (R.Stats.EnvCallsRemoved || R.Stats.ParamsRemoved)
      std::fprintf(stderr, "note: program was open; closed automatically\n");
  }

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

  // explore() selects the backend (sequential, parallel, cached) from the
  // options; with the defaults it runs the plain sequential search.
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
  if (A.Positional.empty()) {
    usage();
    return 1;
  }
  PipelineOptions Opts = pipelineOptionsFromArgs(A);
  if (Opts.Passes.empty())
    Opts.Passes = {"naive-close"};
  if (!argsOk(A))
    return 1;
  CompileResult R = compileFileOrDie(A.Positional[0], Opts, A);
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
  if (A.Positional.empty()) {
    usage();
    return 1;
  }
  PipelineOptions Opts = pipelineOptionsFromArgs(A);
  if (Opts.Passes.empty())
    Opts.Passes = {"interface"};
  if (!argsOk(A))
    return 1;
  CompileResult R = compileFileOrDie(A.Positional[0], Opts, A);
  if (!R.Interface) {
    std::fprintf(stderr, "error: pipeline ran no interface pass\n");
    return 1;
  }
  std::printf("%s", R.Interface->str().c_str());
  return R.Interface->isClosed() ? 0 : 3;
}

int cmdReplay(const Args &A) {
  if (A.Positional.size() < 2) {
    usage();
    return 1;
  }
  std::vector<ReplayStep> Steps;
  if (!parseReplay(A.Positional[1], Steps)) {
    std::fprintf(stderr, "error: malformed choice sequence\n");
    return 1;
  }

  std::unique_ptr<Module> Mod;
  if (A.has("--open")) {
    DiagnosticEngine Diags;
    Mod = compileAndVerify(readFile(A.Positional[0].c_str()), Diags);
    if (!Mod) {
      std::fprintf(stderr, "%s", Diags.str().c_str());
      return 1;
    }
  } else {
    CloseResult R = closeFileOrDie(A.Positional[0], A);
    Mod = std::move(R.Closed);
  }

  SystemOptions SysOpts;
  SysOpts.EnvDomainBound = A.intOf("--env-domain", 1);
  if (!argsOk(A))
    return 1;
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
  CorpusConfig Config;
  Config.Procs = static_cast<int>(A.countOf("--procs", 8));
  Config.StmtsPerProc = static_cast<int>(A.countOf("--stmts", 32));
  Config.Seed = static_cast<uint64_t>(A.intOf("--seed", 11));
  Config.TweakProc = static_cast<int>(A.intOf("--tweak", -1));
  if (!argsOk(A))
    return 1;
  std::printf("%s", generateCorpusSource(Config).c_str());
  return 0;
}

int cmdGenSwitchApp(const Args &A) {
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
