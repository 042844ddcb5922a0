//===- CorpusGen.cpp - Synthetic multi-procedure corpus generator -----------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "support/CorpusGen.h"

#include "support/Random.h"

using namespace closer;

std::string closer::generateCorpusSource(const CorpusConfig &Config) {
  Rng R(Config.Seed);
  size_t Procs = Config.Procs > 0 ? static_cast<size_t>(Config.Procs) : 1;
  size_t Stmts =
      Config.StmtsPerProc > 0 ? static_cast<size_t>(Config.StmtsPerProc) : 1;

  std::string S;
  S += "chan bus[8];\n";
  for (size_t G = 0; G != 8; ++G)
    S += "var g" + std::to_string(G) + " = 0;\n";
  for (size_t P = 0; P != Procs; ++P) {
    S += "proc p" + std::to_string(P) + "(x) {\n";
    for (int V = 0; V != 6; ++V)
      S += "  var v" + std::to_string(V) + " = " + std::to_string(V) + ";\n";
    auto Var = [&] {
      std::string Name = "v";
      Name += std::to_string(R.below(6));
      return Name;
    };
    for (size_t I = 0; I != Stmts; ++I) {
      switch (R.below(10)) {
      case 0:
        S += "  " + Var() + " = env_input();\n";
        break;
      case 1: {
        std::string A = Var();
        S += "  if (" + A + " < " + Var() + ")\n    " + A + " = " + A +
             " + 1;\n";
        break;
      }
      case 2:
        S += "  send(bus, " + Var() + ");\n";
        break;
      case 3:
        // Cross-procedure call (only backward, so the call graph is
        // acyclic and every callee exists by the time it parses).
        if (P > 0) {
          S += "  p" + std::to_string(R.below(P)) + "(" + Var() + ");\n";
          break;
        }
        [[fallthrough]];
      case 4:
        S += "  g" + std::to_string(R.below(8)) + " = " + Var() + ";\n";
        break;
      default:
        S += "  " + Var() + " = " + Var() + " * 3 + " +
             std::to_string(R.below(100)) + ";\n";
        break;
      }
    }
    S += "}\n";
  }
  // Environment-instantiated processes keep the corpus open (env-bound
  // parameters are taint sources).
  for (size_t P = 0; P < Procs; P += 4)
    S += "process m" + std::to_string(P) + " = p" + std::to_string(P) +
         "(env);\n";
  return S;
}
