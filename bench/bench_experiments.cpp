//===- bench_experiments.cpp - E1-E3, E5-E9: the paper's claims as rows ---===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The paper has no numeric tables; its evaluation is a set of claims. This
// bench measures each one and writes BENCH_experiments.json, one flat record
// per measured row. scripts/check.sh asserts the claims on those rows and
// EXPERIMENTS.md cites them. E4 (closing linearity) is bench_scaling.
//
//   E1, E2  Figures 2 and 3: the closed programs, close(p) == close(q)
//   E3      naive most-general environment over domain D vs closing (§3)
//   E5      Theorem 7 on a random corpus: deadlocks, preserved assertions
//   E6      the §6 stand-in closes at every size; the seeded leak is found
//   E7      persistent + sleep sets against full search
//   E8      precision ablations: coarse taint, toss deduplication (§5)
//   E9      §7 input-domain partitioning against naive and eliminated
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "cfg/CfgPrinter.h"
#include "closing/DomainPartition.h"
#include "envgen/NaiveClose.h"
#include "explorer/Search.h"
#include "switchapp/SwitchApp.h"
#include "../tests/RandomProgram.h"

#include <chrono>
#include <fstream>
#include <sstream>

using namespace closer;

namespace {

/// Reads examples/minic/<Name>, the same files the CLI walkthroughs use.
std::string readExample(const std::string &Name) {
  std::string Path = std::string(CLOSER_SOURCE_DIR) + "/examples/minic/" + Name;
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "cannot read %s\n", Path.c_str());
    std::abort();
  }
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Closes \p Source with the default pipeline, or aborts with diagnostics.
CompileResult closeOrAbort(const std::string &Source) {
  CompileResult R = compile(Source);
  if (!R.ok()) {
    std::fprintf(stderr, "bench workload failed to close:\n%s\n",
                 R.Diags.str().c_str());
    std::abort();
  }
  return R;
}

SearchStats search(const Module &Mod, size_t Depth, uint64_t MaxRuns,
                   bool Persistent, bool Sleep) {
  SearchOptions Opts;
  Opts.MaxDepth = Depth;
  Opts.MaxRuns = MaxRuns;
  Opts.UsePersistentSets = Persistent;
  Opts.UseSleepSets = Sleep;
  return explore(Mod, Opts).Stats;
}

BenchJson::Record &searchRow(BenchJson &Json, const std::string &Config,
                             const SearchStats &S) {
  return Json.record(Config)
      .count("states", S.StatesVisited)
      .count("paths", S.Runs)
      .count("tree_transitions", S.TreeTransitions)
      .count("deadlocks", S.Deadlocks)
      .count("assertion_violations", S.AssertionViolations)
      .count("completed", S.Completed ? 1 : 0);
}

BenchJson::Record &closingFields(BenchJson::Record &Row,
                                 const ClosingStats &C) {
  return Row.count("nodes_before", C.NodesBefore)
      .count("nodes_after", C.NodesAfter)
      .count("toss_nodes", C.TossNodesInserted)
      .count("params_removed", C.ParamsRemoved)
      .count("env_calls_removed", C.EnvCallsRemoved)
      .count("nodes_eliminated", C.NodesEliminated);
}

/// E1/E2: each figure's closing stats plus a search of its closed program.
/// Figure 3 also records whether its closed CFG equals Figure 2's modulo
/// the procedure name (printCfg's first line).
void runFigures(BenchJson &Json) {
  CompileResult P = closeOrAbort(readExample("figure2.mc"));
  CompileResult Q = closeOrAbort(readExample("figure3.mc"));
  std::string Lp = printCfg(P.M->Procs[0]);
  std::string Lq = printCfg(Q.M->Procs[0]);
  Lp.erase(0, Lp.find('\n'));
  Lq.erase(0, Lq.find('\n'));
  closingFields(searchRow(Json, "e1_figure2", search(*P.M, 25, 0, true, true)),
                P.Closing);
  closingFields(searchRow(Json, "e2_figure3", search(*Q.M, 25, 0, true, true)),
                Q.Closing)
      .count("same_as_figure2", Lp == Lq ? 1 : 0);
}

/// E3: the filter program (2 environment reads) under naive closing over
/// D = 2..1024 against the closed program. Full search; the naive side is
/// capped at 400k paths, which D = 1024 reaches.
void runStateSpace(BenchJson &Json) {
  const int Reads = 2;
  auto Open = benchCompile(filterProgram(Reads));
  for (int64_t D = 2; D <= 1024; D *= 2) {
    Module Naive = naiveCloseModule(*Open, {D - 1});
    searchRow(Json, "e3_naive_D" + std::to_string(D),
              search(Naive, 16, 400000, false, false))
        .count("domain", D);
  }
  CompileResult R = closeOrAbort(filterProgram(Reads));
  searchRow(Json, "e3_closed", search(*R.M, 16, 400000, false, false));
}

/// True when every VS_assert in \p Mod kept its real (non-unknown) payload.
bool allAssertionsPreserved(const Module &Mod) {
  for (const ProcCfg &Proc : Mod.Procs)
    for (const CfgNode &Node : Proc.Nodes)
      if (Node.Kind == CfgNodeKind::Call &&
          Node.Builtin == BuiltinKind::VsAssert &&
          Node.Args[0]->Kind == ExprKind::Unknown)
        return false;
  return true;
}

/// E5: 48 random open programs, naive closing over {0,1,2} against the
/// closed program, full search to depth 10. Theorem 7 covers deadlocks and
/// violations of assertions whose argument survives closing, so the
/// preserved-assertion pair is counted apart.
void runPreservation(BenchJson &Json) {
  unsigned Programs = 0, NaiveDeadlocky = 0, ClosedDeadlocky = 0,
           NaiveViolating = 0, ClosedViolating = 0, NaivePreserved = 0,
           ClosedPreserved = 0;
  uint64_t NaiveStates = 0, ClosedStates = 0;
  for (uint64_t Seed = 1; Seed <= 48; ++Seed) {
    std::string Src = randomOpenProgram(Seed);
    DiagnosticEngine Diags;
    auto Open = compileAndVerify(Src, Diags);
    CompileResult R = compile(Src);
    if (!Open || !R.ok())
      continue;
    ++Programs;
    SearchStats N =
        search(naiveCloseModule(*Open, {2}), 10, 30000, false, false);
    SearchStats C = search(*R.M, 10, 60000, false, false);
    NaiveStates += N.StatesVisited;
    ClosedStates += C.StatesVisited;
    if (N.Deadlocks) {
      ++NaiveDeadlocky;
      ClosedDeadlocky += C.Deadlocks != 0;
    }
    if (N.AssertionViolations) {
      ++NaiveViolating;
      ClosedViolating += C.AssertionViolations != 0;
      if (allAssertionsPreserved(*R.M)) {
        ++NaivePreserved;
        ClosedPreserved += C.AssertionViolations != 0;
      }
    }
  }
  Json.record("e5_corpus")
      .count("programs", Programs)
      .count("naive_deadlocky", NaiveDeadlocky)
      .count("closed_deadlocky", ClosedDeadlocky)
      .count("naive_violating", NaiveViolating)
      .count("closed_violating", ClosedViolating)
      .count("naive_violating_preserved", NaivePreserved)
      .count("closed_violating_preserved", ClosedPreserved)
      .count("naive_states", NaiveStates)
      .count("closed_states", ClosedStates);
}

/// E6: the call-processing stand-in at 1..32 lines (3 events per line, one
/// handler variant per line, so code size grows with the line count), then
/// the seeded trunk leak (2 lines, 1 trunk) hunted to the first error.
void runSwitchApp(BenchJson &Json) {
  for (int Lines : {1, 2, 4, 8, 16, 32}) {
    SwitchAppConfig Config;
    Config.NumLines = Lines;
    Config.EventsPerLine = 3;
    Config.HandlerVariants = Lines;
    std::string Source = generateSwitchAppSource(Config);
    auto Mod = benchCompile(Source);
    ClosingStats Stats;
    auto T0 = std::chrono::steady_clock::now();
    Module Closed = closeModule(*Mod, {}, &Stats);
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
    BenchJson::Record &Row = Json.record("e6_lines" + std::to_string(Lines))
                                 .count("src_bytes", Source.size())
                                 .count("procs", Mod->Procs.size())
                                 .count("processes", Mod->Processes.size());
    closingFields(Row, Stats)
        .num("close_ms", Ms)
        .count("closed", EnvAnalysis(Closed).moduleIsClosed() ? 1 : 0);
  }

  SwitchAppConfig Buggy;
  Buggy.NumLines = 2;
  Buggy.NumTrunks = 1;
  Buggy.EventsPerLine = 2;
  Buggy.WithRegistration = false;
  Buggy.WithForwarding = false;
  Buggy.SeedTrunkLeakBug = true;
  CompileResult R = closeOrAbort(generateSwitchAppSource(Buggy));
  SearchOptions Opts;
  Opts.MaxDepth = 60;
  Opts.StopOnFirstError = true;
  SearchResult Hunt = explore(*R.M, Opts);
  searchRow(Json, "e6_seeded_leak", Hunt.Stats)
      .count("report_depth",
             Hunt.Reports.empty() ? 0 : Hunt.Reports[0].Depth);
}

/// E7: independent producer/consumer pairs (disjoint footprints) and dining
/// philosophers (cyclic conflicts), full search against the reductions.
/// Full search is capped at 300k paths, the reduced modes at 2M.
void runPor(BenchJson &Json) {
  struct Mode {
    const char *Name;
    bool Persistent, Sleep;
    uint64_t MaxRuns;
  };
  const Mode Full{"full", false, false, 300000};
  const Mode SleepOnly{"sleep", false, true, 2000000};
  const Mode Both{"persistent_sleep", true, true, 2000000};
  auto Run = [&](const std::string &Workload, const std::string &Source,
                 std::initializer_list<Mode> Modes) {
    auto Mod = benchCompile(Source);
    for (const Mode &M : Modes)
      searchRow(Json, "e7_" + Workload + "_" + M.Name,
                search(*Mod, 64, M.MaxRuns, M.Persistent, M.Sleep));
  };
  for (int Pairs = 2; Pairs <= 4; ++Pairs)
    Run("pairs" + std::to_string(Pairs), independentPairsProgram(Pairs),
        {Full, SleepOnly, Both});
  for (int N = 3; N <= 4; ++N)
    Run("philosophers" + std::to_string(N), philosophersProgram(N),
        {Full, Both});
}

/// E8 flow sensitivity: environment data reaches x but is overwritten
/// before the protocol phase, which only the define-use analysis sees.
const char *FlowSensitiveWorkload = R"(
chan c[8];

proc main() {
  var x;
  var i;
  var acc = 0;
  x = env_input();
  if (x > 0)
    send(c, 'probe');
  else
    send(c, 'idle');
  x = 0;
  for (i = 0; i < 3; i = i + 1) {
    acc = acc + x + i;
    if (acc % 2 == 0)
      send(c, acc);
    else
      send(c, -acc);
  }
}

process m = main();
)";

/// E8 toss dedup, the §5 "temporal independence" shape: one
/// environment-dependent test in two places along a straight line.
const char *TossDedupWorkload = R"(
chan c[8];

proc main(x) {
  var y;
  y = x % 2;
  if (y == 0)
    send(c, 1);
  else
    send(c, 2);
  if (y == 0)
    send(c, 3);
  else
    send(c, 4);
}

process m = main(env);
)";

/// E8 and E9: each module is closed under two or three settings and every
/// result searched in full to depth 20.
void runAblations(BenchJson &Json) {
  auto Row = [&](const std::string &Config, const Module &Closed,
                 const ClosingStats &Stats) {
    closingFields(searchRow(Json, Config, search(Closed, 20, 0, false, false)),
                  Stats);
  };
  {
    auto Mod = benchCompile(FlowSensitiveWorkload);
    ClosingStats Precise, Coarse;
    ClosingOptions CoarseOpts;
    CoarseOpts.Taint.CoarseMode = true;
    Row("e8_taint_precise", closeModule(*Mod, {}, &Precise), Precise);
    Row("e8_taint_coarse", closeModule(*Mod, CoarseOpts, &Coarse), Coarse);
  }
  {
    auto Mod = benchCompile(TossDedupWorkload);
    ClosingStats Plain, Dedup;
    ClosingOptions DedupOpts;
    DedupOpts.DedupTosses = true;
    Row("e8_toss_plain", closeModule(*Mod, {}, &Plain), Plain);
    Row("e8_toss_dedup", closeModule(*Mod, DedupOpts, &Dedup), Dedup);
  }
  // E9: the §7 resource manager, naive over a domain spanning both
  // thresholds {10, 100}, Figure 1 closing, and partitioned closing.
  auto Mod = benchCompile(readExample("resource_manager.mc"));
  searchRow(Json, "e9_naive_D128",
            search(naiveCloseModule(*Mod, {127}), 20, 0, false, false));
  ClosingStats Eliminated;
  Row("e9_eliminated", closeModule(*Mod, {}, &Eliminated), Eliminated);
  PartitionStats PStats;
  Module Partitioned = partitionInputs(*Mod, {}, &PStats);
  searchRow(Json, "e9_partitioned", search(Partitioned, 20, 0, false, false))
      .count("inputs_partitioned", PStats.InputsPartitioned)
      .count("representatives", PStats.RepresentativesTotal);
}

} // namespace

int main() {
  BenchJson Json;
  runFigures(Json);
  runStateSpace(Json);
  runPreservation(Json);
  runSwitchApp(Json);
  runPor(Json);
  runAblations(Json);
  return Json.write("BENCH_experiments.json") ? 0 : 1;
}
