//===- quickstart.cpp - Closing your first open program ---------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The smallest end-to-end tour of the library:
//
//   1. write an *open* MiniC program (its process takes an `env` argument
//      and reads dialed digits with env_input());
//   2. close it automatically with the paper's transformation;
//   3. print the closed program (source and CFG form);
//   4. explore its full state space with the VeriSoft-style explorer.
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgPrinter.h"
#include "closing/Pipeline.h"
#include "explorer/Search.h"

#include <cstdio>

using namespace closer;

int main() {
  // An open reactive program: a tiny "door controller". The environment
  // provides badge codes; the controller unlocks or buzzes, and a monitor
  // process audits the unlock count.
  const char *Source = R"(
chan events[4];

proc controller(master) {
  var badge;
  var tries;
  for (tries = 0; tries < 2; tries = tries + 1) {
    badge = env_input();
    if (badge == master)
      send(events, 'unlock');
    else
      send(events, 'buzz');
  }
  send(events, 'off');
}

proc monitor() {
  var ev;
  var unlocks = 0;
  ev = recv(events);
  while (ev != 'off') {
    if (ev == 'unlock')
      unlocks = unlocks + 1;
    VS_assert(unlocks <= 2);
    ev = recv(events);
  }
}

process ctrl = controller(env);
process mon = monitor();
)";

  std::printf("=== open program (MiniC) ===\n%s\n", Source);

  // Step 2: close it. The default compile() pipeline runs parse -> sema ->
  // CFG -> verification -> analysis -> transformation.
  CompileResult R = compile(Source);
  if (!R.ok()) {
    std::printf("closing failed:\n%s\n", R.Diags.str().c_str());
    return 1;
  }

  std::printf("=== closing statistics ===\n");
  std::printf("  nodes: %zu -> %zu\n", R.Closing.NodesBefore,
              R.Closing.NodesAfter);
  std::printf("  env interface calls removed: %zu\n",
              R.Closing.EnvCallsRemoved);
  std::printf("  parameters removed:          %zu\n", R.Closing.ParamsRemoved);
  std::printf("  VS_toss conditionals added:  %zu\n",
              R.Closing.TossNodesInserted);

  std::printf("\n=== closed program (emitted source) ===\n%s\n",
              emitModuleSource(*R.M).c_str());

  std::printf("=== closed controller CFG ===\n%s\n",
              printCfg(*R.M->findProc("controller")).c_str());

  // Step 4: systematic state-space exploration.
  SearchOptions Opts;
  Opts.MaxDepth = 30;
  SearchResult Search = explore(*R.M, Opts);

  std::printf("=== exploration ===\n%s\n", Search.Stats.str().c_str());
  for (const ErrorReport &Rep : Search.Reports)
    std::printf("\nreport:\n%s", Rep.str().c_str());

  std::printf("\nThe closed system covers every behavior of the open system "
              "under any environment,\nwithout enumerating badge codes: the "
              "badge test became a VS_toss choice.\n");
  return 0;
}
