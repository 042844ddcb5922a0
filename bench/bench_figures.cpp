//===- bench_figures.cpp - E1/E2: regenerate Figures 2 and 3 ----------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// Regenerates the paper's Figure 2 (procedure p and its closed form G'_p)
// and Figure 3 (procedure q — same closed form, optimal translation), then
// times the transformation.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "cfg/CfgPrinter.h"
#include "explorer/Search.h"

#include <benchmark/benchmark.h>

using namespace closer;

namespace {

const char *figure2() {
  return R"(
chan evens[16];
chan odds[16];

proc p(x) {
  var cnt = 0;
  var y;
  while (cnt < 10) {
    y = x % 2;
    if (y == 0)
      send(evens, cnt);
    else
      send(odds, cnt);
    cnt = cnt + 1;
  }
}

process main = p(env);
)";
}

const char *figure3() {
  return R"(
chan evens[16];
chan odds[16];

proc q(x) {
  var cnt = 0;
  var y;
  while (cnt < 10) {
    y = x % 2;
    if (y == 0)
      send(evens, cnt);
    else
      send(odds, cnt);
    x = x / 2;
    cnt = cnt + 1;
  }
}

process main = q(env);
)";
}

void printFigure(const char *Title, const char *Source) {
  std::printf("==================================================\n");
  std::printf("%s\n", Title);
  std::printf("==================================================\n");
  std::printf("--- original (open) ---\n%s\n", Source);
  CompileResult R = compile(Source);
  if (!R.ok()) {
    std::printf("closing failed:\n%s\n", R.Diags.str().c_str());
    return;
  }
  const ProcCfg &Orig = R.Open->Procs[0];
  const ProcCfg &Closed = R.M->Procs[0];
  std::printf("--- original control-flow graph ---\n%s\n",
              printCfg(Orig).c_str());
  std::printf("--- closed control-flow graph ---\n%s\n",
              printCfg(Closed).c_str());
  std::printf("--- closed program (source form) ---\n%s\n",
              emitModuleSource(*R.M).c_str());
  std::printf("statistics: nodes %zu -> %zu, toss nodes %zu, params "
              "removed %zu, statements eliminated %zu\n\n",
              R.Closing.NodesBefore, R.Closing.NodesAfter,
              R.Closing.TossNodesInserted, R.Closing.ParamsRemoved,
              R.Closing.NodesEliminated);
}

void BM_CloseFigure2(benchmark::State &State) {
  auto Mod = benchCompile(figure2());
  for (auto _ : State) {
    Module Closed = closeModule(*Mod);
    benchmark::DoNotOptimize(&Closed);
  }
}
BENCHMARK(BM_CloseFigure2);

void BM_CloseFigure3(benchmark::State &State) {
  auto Mod = benchCompile(figure3());
  for (auto _ : State) {
    Module Closed = closeModule(*Mod);
    benchmark::DoNotOptimize(&Closed);
  }
}
BENCHMARK(BM_CloseFigure3);

/// Exploration of the closed figure programs: 2^10 branch paths each.
void BM_ExploreClosedFigure(benchmark::State &State) {
  CompileResult R = compile(figure3());
  uint64_t Runs = 0;
  for (auto _ : State) {
    SearchOptions Opts;
    Opts.MaxDepth = 25;
    Runs = explore(*R.M, Opts).Stats.Runs;
  }
  State.counters["paths"] = static_cast<double>(Runs);
}
BENCHMARK(BM_ExploreClosedFigure);

} // namespace

int main(int argc, char **argv) {
  printFigure("Figure 2: procedure p -> G'_p (strict over-approximation)",
              figure2());
  printFigure("Figure 3: procedure q -> G'_q (optimal translation; "
              "identical to G'_p)",
              figure3());

  // Verify the headline claim in-line for the record.
  CompileResult Rp = compile(figure2());
  CompileResult Rq = compile(figure3());
  std::string Lp = printCfg(Rp.M->Procs[0]);
  std::string Lq = printCfg(Rq.M->Procs[0]);
  Lp.erase(0, Lp.find('\n'));
  Lq.erase(0, Lq.find('\n'));
  std::printf("close(p) == close(q) (modulo name): %s\n\n",
              Lp == Lq ? "YES (paper's claim reproduced)" : "NO (BUG)");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
