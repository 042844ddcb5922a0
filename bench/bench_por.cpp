//===- bench_por.cpp - E7: partial-order reduction effectiveness ------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// VeriSoft's state-less search is made tractable by persistent-set and
// sleep-set partial-order reduction ([God96], cited as the key enabler in
// §2). Two workload families:
//
//  * independent pairs (disjoint footprints): persistent sets collapse the
//    exponential interleaving product to a single order — expect states to
//    stay flat instead of exploding with the pair count;
//  * dining philosophers (cyclic conflicts): persistent sets cannot split
//    the processes, sleep sets still prune commuting schedules; deadlock
//    detection must survive the reduction.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "explorer/Search.h"

#include <benchmark/benchmark.h>

using namespace closer;

namespace {

SearchStats explore(const Module &Mod, bool Persistent, bool Sleep,
                    size_t Depth = 64, uint64_t MaxRuns = 2000000) {
  SearchOptions Opts;
  Opts.MaxDepth = Depth;
  Opts.MaxRuns = MaxRuns;
  Opts.UsePersistentSets = Persistent;
  Opts.UseSleepSets = Sleep;
  return closer::explore(Mod, Opts).Stats;
}

void reportRow(const char *Workload, const char *Mode,
               const SearchStats &Stats) {
  std::printf("%-22s %-18s %10llu %10llu %10llu %9llu %s\n", Workload, Mode,
              static_cast<unsigned long long>(Stats.StatesVisited),
              static_cast<unsigned long long>(Stats.Runs),
              static_cast<unsigned long long>(Stats.TreeTransitions),
              static_cast<unsigned long long>(Stats.Deadlocks),
              Stats.Completed ? "" : "(budget!)");
}

void BM_IndependentPairs(benchmark::State &State) {
  int Pairs = static_cast<int>(State.range(0));
  bool Por = State.range(1) != 0;
  auto Mod = benchCompile(independentPairsProgram(Pairs));
  SearchStats Stats;
  for (auto _ : State)
    Stats = explore(*Mod, Por, Por, 64, 300000);
  State.counters["pairs"] = Pairs;
  State.counters["por"] = Por;
  State.counters["states"] = static_cast<double>(Stats.StatesVisited);
  State.counters["paths"] = static_cast<double>(Stats.Runs);
}
BENCHMARK(BM_IndependentPairs)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({4, 1})
    ->Args({6, 1})
    ->Unit(benchmark::kMillisecond);

void BM_Philosophers(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  bool Por = State.range(1) != 0;
  auto Mod = benchCompile(philosophersProgram(N));
  SearchStats Stats;
  for (auto _ : State)
    Stats = explore(*Mod, Por, Por, 64, 300000);
  State.counters["philosophers"] = N;
  State.counters["por"] = Por;
  State.counters["states"] = static_cast<double>(Stats.StatesVisited);
  State.counters["deadlocks"] = static_cast<double>(Stats.Deadlocks);
}
BENCHMARK(BM_Philosophers)
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  std::printf("E7: partial-order reduction (persistent + sleep sets)\n\n");
  std::printf("%-22s %-18s %10s %10s %10s %9s\n", "workload", "mode",
              "states", "paths", "trans", "deadlocks");

  for (int Pairs = 2; Pairs <= 4; ++Pairs) {
    auto Mod = benchCompile(independentPairsProgram(Pairs));
    std::string Name = "pairs=" + std::to_string(Pairs);
    reportRow(Name.c_str(), "full",
              explore(*Mod, false, false, 64, 300000));
    reportRow(Name.c_str(), "sleep-only", explore(*Mod, false, true));
    reportRow(Name.c_str(), "persistent+sleep", explore(*Mod, true, true));
  }
  for (int N = 3; N <= 4; ++N) {
    auto Mod = benchCompile(philosophersProgram(N));
    std::string Name = "philosophers=" + std::to_string(N);
    reportRow(Name.c_str(), "full",
              explore(*Mod, false, false, 64, 300000));
    reportRow(Name.c_str(), "persistent+sleep", explore(*Mod, true, true));
  }
  std::printf("\nDeadlock counts must be nonzero in every philosophers row: "
              "the reduction\npreserves deadlocks while cutting states.\n\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
