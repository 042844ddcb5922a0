//===- bench_switchapp.cpp - E6: the call-processing case study -------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The §6 claim: a large multi-process call-processing application can be
// closed completely automatically (manual closing is impractical) and then
// analyzed with VeriSoft. Sweeps the application size and reports, per
// configuration: source size, interface size eliminated, closing time, and
// exploration results (including whether the seeded trunk-leak defect is
// found).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "explorer/Search.h"
#include "switchapp/SwitchApp.h"

#include <benchmark/benchmark.h>
#include <chrono>

using namespace closer;

namespace {

void BM_CloseSwitchApp(benchmark::State &State) {
  SwitchAppConfig Config;
  Config.NumLines = static_cast<int>(State.range(0));
  Config.EventsPerLine = 3;
  Config.HandlerVariants = Config.NumLines; // One subscriber class per line.
  std::string Source = generateSwitchAppSource(Config);
  auto Mod = benchCompile(Source);
  ClosingStats Stats;
  for (auto _ : State) {
    ClosingStats Fresh;
    Module Closed = closeModule(*Mod, {}, &Fresh);
    benchmark::DoNotOptimize(&Closed);
    Stats = Fresh;
  }
  State.counters["lines"] = Config.NumLines;
  State.counters["src_bytes"] = static_cast<double>(Source.size());
  State.counters["nodes"] = static_cast<double>(Stats.NodesBefore);
  State.counters["env_calls_removed"] =
      static_cast<double>(Stats.EnvCallsRemoved);
  State.counters["tosses"] = static_cast<double>(Stats.TossNodesInserted);
}
BENCHMARK(BM_CloseSwitchApp)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_ExploreClosedSwitchApp(benchmark::State &State) {
  SwitchAppConfig Config;
  Config.NumLines = static_cast<int>(State.range(0));
  Config.NumTrunks = 1;
  Config.EventsPerLine = 1;
  CompileResult R = compile(generateSwitchAppSource(Config));
  if (!R.ok())
    std::abort();
  SearchStats Stats;
  for (auto _ : State) {
    SearchOptions Opts;
    Opts.MaxDepth = 30;
    Opts.MaxRuns = 20000;
    Stats = explore(*R.M, Opts).Stats;
  }
  State.counters["lines"] = Config.NumLines;
  State.counters["states"] = static_cast<double>(Stats.StatesVisited);
  State.counters["deadlocks"] = static_cast<double>(Stats.Deadlocks);
}
BENCHMARK(BM_ExploreClosedSwitchApp)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  std::printf("E6: automatic closing of the call-processing application\n\n");
  std::printf("%-8s %-10s %-8s %-8s %-8s %-10s %-8s %-10s %-10s\n", "lines",
              "src-bytes", "procs", "procsS", "nodes", "env-gone", "tosses",
              "close-ms", "closed?");
  for (int Lines : {1, 2, 4, 8, 16, 32}) {
    SwitchAppConfig Config;
    Config.NumLines = Lines;
    Config.EventsPerLine = 3;
    Config.HandlerVariants = Lines; // Code size scales with lines.
    std::string Source = generateSwitchAppSource(Config);
    auto Mod = benchCompile(Source);

    auto Start = std::chrono::steady_clock::now();
    ClosingStats Stats;
    Module Closed = closeModule(*Mod, {}, &Stats);
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
    EnvAnalysis After(Closed);
    std::printf("%-8d %-10zu %-8zu %-8zu %-8zu %-10zu %-8zu %-10.2f %-10s\n",
                Lines, Source.size(), Mod->Procs.size(),
                Mod->Processes.size(), Stats.NodesBefore,
                Stats.EnvCallsRemoved, Stats.TossNodesInserted, Ms,
                After.moduleIsClosed() ? "yes" : "NO");
  }

  std::printf("\nbug hunt: seeded trunk leak (2 lines, 1 trunk, 2 events)\n");
  SwitchAppConfig Buggy;
  Buggy.NumLines = 2;
  Buggy.NumTrunks = 1;
  Buggy.EventsPerLine = 2;
  Buggy.WithRegistration = false;
  Buggy.WithForwarding = false;
  Buggy.SeedTrunkLeakBug = true;
  CompileResult R = compile(generateSwitchAppSource(Buggy));
  SearchOptions Opts;
  Opts.MaxDepth = 60;
  Opts.StopOnFirstError = true;
  SearchStats Stats = explore(*R.M, Opts).Stats;
  std::printf("search: %s\n", Stats.str().c_str());
  std::printf("defect %s\n\n", Stats.Deadlocks ? "FOUND (deadlock trace "
                                                 "recorded)"
                                               : "NOT FOUND");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
