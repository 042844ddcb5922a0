//===- telephone_switch.cpp - The 5ESS-style case study ---------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// Recreates the paper's §6 workflow on the synthetic call-processing
// application: generate a multi-process switch application that is open at
// its telephony interface, close it automatically, and use the explorer as
// a "lightweight testing and reverse-engineering platform" — first on the
// correct application, then on a variant with a seeded trunk-leak defect.
//
//===----------------------------------------------------------------------===//

#include "closing/Pipeline.h"
#include "explorer/Search.h"
#include "switchapp/SwitchApp.h"

#include <cstdio>
#include <cstdlib>

using namespace closer;

/// Closes and explores one configuration; returns the search statistics.
static SearchStats analyze(const char *Label, const SwitchAppConfig &Config,
                    size_t Depth, bool StopOnFirstError) {
  std::string Source = generateSwitchAppSource(Config);
  std::printf("--- %s ---\n", Label);
  std::printf("application: %d lines, %d trunks, %d events/line, "
              "%zu bytes of MiniC\n",
              Config.NumLines, Config.NumTrunks, Config.EventsPerLine,
              Source.size());

  CompileResult R = compile(Source);
  if (!R.ok()) {
    std::printf("closing failed:\n%s\n", R.Diags.str().c_str());
    std::exit(1);
  }
  std::printf("closed automatically: %zu env calls removed, %zu tosses "
              "inserted, %zu nodes -> %zu nodes\n",
              R.Closing.EnvCallsRemoved, R.Closing.TossNodesInserted,
              R.Closing.NodesBefore, R.Closing.NodesAfter);

  SearchOptions Opts;
  Opts.MaxDepth = Depth;
  Opts.MaxRuns = 200000;
  Opts.StopOnFirstError = StopOnFirstError;
  SearchResult Search = explore(*R.M, Opts);
  const SearchStats &Stats = Search.Stats;
  std::printf("exploration: %s\n", Stats.str().c_str());

  if (Stats.Deadlocks || Stats.AssertionViolations) {
    std::printf("first finding:\n%s", Search.Reports[0].str().c_str());
  } else if (Stats.Completed) {
    std::printf("no deadlocks or assertion violations up to depth %zu "
                "(exhaustive)\n",
                Depth);
  } else {
    std::printf("no deadlocks or assertion violations found within the "
                "run budget\n");
  }
  std::printf("\n");
  return Stats;
}

int main() {
  std::printf("Telephone-switch case study (cf. paper section 6)\n");
  std::printf("Manually closing this application would mean simulating the "
              "rest of the switch;\nthe transformation closes it "
              "automatically instead.\n\n");

  SwitchAppConfig Correct;
  Correct.NumLines = 1;
  Correct.NumTrunks = 1;
  Correct.EventsPerLine = 1;
  SearchStats CorrectRun =
      analyze("correct application", Correct, 40, /*StopOnFirstError=*/false);

  SwitchAppConfig Buggy = Correct;
  Buggy.NumLines = 2;
  Buggy.EventsPerLine = 2;
  Buggy.WithForwarding = false;
  Buggy.WithRegistration = false;
  Buggy.SeedTrunkLeakBug = true;
  SearchStats LeakRun = analyze("application with seeded trunk leak", Buggy,
                                60, /*StopOnFirstError=*/true);
  // The leak shows as a deadlock; the correct application shows nothing.
  bool CorrectClean =
      CorrectRun.Deadlocks == 0 && CorrectRun.AssertionViolations == 0;
  return CorrectClean && LeakRun.Deadlocks != 0 ? 0 : 1;
}
