//===- BenchUtil.h - Shared workload builders for the benchmarks -*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#ifndef CLOSER_BENCH_BENCHUTIL_H
#define CLOSER_BENCH_BENCHUTIL_H

#include "closing/Pipeline.h"
#include "support/Json.h"
#include "support/Random.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace closer {

/// Minimal machine-readable benchmark output: flat records of named
/// numeric/string fields, written as a JSON array so the perf trajectory
/// can be tracked across PRs without scraping human-readable tables.
/// Serialization rides on the shared json::Value writer (the same one
/// behind `closer explore --stats-json`), keeping the historical one
/// compact record per line framing.
class BenchJson {
public:
  struct Record {
    json::Value Obj = json::Value::object();

    Record &num(const std::string &Key, double V) {
      // A sub-microsecond run can produce inf/nan rates; JSON has no
      // spelling for either, so clamp at the source.
      Obj.add(Key, std::isfinite(V) ? V : 0.0);
      return *this;
    }
    Record &count(const std::string &Key, uint64_t V) {
      Obj.add(Key, V);
      return *this;
    }
    Record &str(const std::string &Key, const std::string &V) {
      Obj.add(Key, V);
      return *this;
    }
  };

  Record &record(const std::string &Config) {
    Records.emplace_back();
    return Records.back().str("config", Config);
  }

  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
      return false;
    }
    std::fprintf(F, "[\n");
    for (size_t R = 0; R != Records.size(); ++R)
      std::fprintf(F, "  %s%s\n", Records[R].Obj.str().c_str(),
                   R + 1 != Records.size() ? "," : "");
    std::fprintf(F, "]\n");
    std::fclose(F);
    std::printf("wrote %s (%zu records)\n", Path.c_str(), Records.size());
    return true;
  }

private:
  std::vector<Record> Records;
};

/// Events-per-second that is always finite: zero-elapsed (sub-tick) runs
/// report 0 instead of inf/nan, so rates are safe to write as JSON and to
/// divide by each other.
inline double safeRate(uint64_t Count, double Seconds) {
  double R = Seconds > 0 ? static_cast<double>(Count) / Seconds : 0;
  return std::isfinite(R) ? R : 0;
}

/// Compiles or aborts (benchmarks must not measure broken inputs).
inline std::unique_ptr<Module> benchCompile(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Mod = compileAndVerify(Source, Diags);
  if (!Mod) {
    std::fprintf(stderr, "bench workload failed to compile:\n%s\n",
                 Diags.str().c_str());
    std::abort();
  }
  return Mod;
}

/// The open "filter" program of experiment E3: reads K environment inputs
/// and routes each to the even or odd channel.
inline std::string filterProgram(int K) {
  std::string S;
  S += "chan evens[" + std::to_string(K + 1) + "];\n";
  S += "chan odds[" + std::to_string(K + 1) + "];\n";
  S += "proc filter() {\n";
  S += "  var i;\n";
  S += "  var x;\n";
  S += "  for (i = 0; i < " + std::to_string(K) + "; i = i + 1) {\n";
  S += "    x = env_input();\n";
  S += "    if (x % 2 == 0)\n";
  S += "      send(evens, i);\n";
  S += "    else\n";
  S += "      send(odds, i);\n";
  S += "  }\n";
  S += "}\n";
  S += "process m = filter();\n";
  return S;
}

/// Size unit of the E4 linearity metric: CFG nodes plus define-use arcs —
/// |G_j| + |G~_j|, the two graphs the paper's "single traversal" (§4)
/// walks, so linear closing means flat ns per unit. Nodes alone understate
/// the work on define-use-dense programs (arc count grows faster than node
/// count when many definitions stay live), which made earlier ns_per_node
/// readings look superlinear even for a linear transform. This is the
/// denominator the scripts/check.sh linearity gate asserts on.
inline size_t scalingUnits(size_t Nodes, size_t DuArcs) {
  return Nodes + DuArcs;
}

/// A synthetic open program with ~N statements for the linear-time
/// experiment E4. Mixes untainted arithmetic, environment inputs, tainted
/// and untainted conditionals, and visible operations, so the closing
/// algorithm exercises every step.
inline std::string scalingProgram(size_t N, uint64_t Seed = 7) {
  Rng R(Seed);
  std::string S;
  S += "chan c[8];\n";
  S += "proc work(x) {\n";
  for (int V = 0; V != 10; ++V)
    S += "  var v" + std::to_string(V) + " = " + std::to_string(V) + ";\n";
  auto Var = [&] {
    std::string Name = "v";
    Name += std::to_string(R.below(10));
    return Name;
  };
  for (size_t I = 0; I != N; ++I) {
    switch (R.below(8)) {
    case 0:
      S += "  " + Var() + " = env_input();\n";
      break;
    case 1: {
      std::string A = Var();
      S += "  if (" + A + " < " + Var() + ")\n";
      S += "    " + A + " = " + A + " + 1;\n";
      break;
    }
    case 2:
      S += "  send(c, " + Var() + ");\n";
      break;
    default:
      S += "  " + Var() + " = " + Var() + " * 3 + " +
           std::to_string(R.below(100)) + ";\n";
      break;
    }
  }
  S += "}\n";
  S += "process m = work(env);\n";
  return S;
}

/// Dining philosophers (E7): N philosophers, N fork semaphores, classic
/// left-then-right acquisition — deadlocks exist and dependencies are
/// cyclic, stressing sleep sets.
inline std::string philosophersProgram(int N, int Meals = 1) {
  std::string S;
  for (int I = 0; I != N; ++I)
    S += "sem fork" + std::to_string(I) + "(1);\n";
  S += "chan meals[" + std::to_string(N * Meals + 1) + "];\n";
  for (int I = 0; I != N; ++I) {
    int Left = I;
    int Right = (I + 1) % N;
    S += "proc phil" + std::to_string(I) + "() {\n";
    S += "  var m;\n";
    S += "  for (m = 0; m < " + std::to_string(Meals) + "; m = m + 1) {\n";
    S += "    sem_wait(fork" + std::to_string(Left) + ");\n";
    S += "    sem_wait(fork" + std::to_string(Right) + ");\n";
    S += "    send(meals, " + std::to_string(I) + ");\n";
    S += "    sem_signal(fork" + std::to_string(Right) + ");\n";
    S += "    sem_signal(fork" + std::to_string(Left) + ");\n";
    S += "  }\n";
    S += "}\n";
  }
  for (int I = 0; I != N; ++I)
    S += "process p" + std::to_string(I) + " = phil" + std::to_string(I) +
         "();\n";
  return S;
}

/// The transition-engine workload: two processes interleaving on one
/// semaphore, with a block of Rounds x 3 arithmetic statements of invisible
/// computation between visible operations (mixing *, %, + and - over three
/// accumulators, values bounded so no overflow fires). Philosophers-style
/// transitions are nearly empty — they benchmark explorer bookkeeping; this
/// one carries the per-transition evaluation work real handlers do, which
/// is what separates the bytecode VM from the tree-walking interpreter.
inline std::string vmComputeProgram(int Iters, int Rounds) {
  std::string S;
  S += "sem s(1);\n";
  S += "proc worker() {\n";
  S += "  var k;\n  var a;\n  var b;\n  var c;\n";
  S += "  a = 1; b = 2; c = 3;\n";
  S += "  for (k = 0; k < " + std::to_string(Iters) + "; k = k + 1) {\n";
  for (int R = 0; R != Rounds; ++R) {
    std::string I = std::to_string(R);
    S += "    a = (a * 3 + " + I + " - b % 17) % 8192;\n";
    S += "    b = (b + a % 29 + c * 2) % 8192;\n";
    S += "    c = (a + b - c) % 4096;\n";
  }
  S += "    sem_wait(s);\n";
  S += "    sem_signal(s);\n";
  S += "  }\n";
  S += "}\n";
  S += "process p0 = worker();\n";
  S += "process p1 = worker();\n";
  return S;
}

/// Two processes looping Iters times over wait/signal on one shared
/// semaphore: a deep "grid" state space of (2 * Iters + 1)^2 distinct
/// states (the pair of loop positions, two steps per iteration), every one
/// reachable along combinatorially many interleavings. Without a
/// visited-state cache the search tree is exponential in Iters; with one
/// it collapses to the grid — the cached deep-series workload.
inline std::string semGridProgram(int Iters) {
  std::string S;
  std::string N = std::to_string(Iters);
  S += "sem s(2);\n";
  for (const char *P : {"a", "b"}) {
    S += "proc " + std::string(P) + "() {\n";
    S += "  var k;\n";
    S += "  for (k = 0; k < " + N + "; k = k + 1) {\n";
    S += "    sem_wait(s);\n";
    S += "    sem_signal(s);\n";
    S += "  }\n";
    S += "}\n";
  }
  S += "process pa = a();\n";
  S += "process pb = b();\n";
  return S;
}

/// N independent producer/consumer pairs on disjoint channels (E7's
/// persistent-set showcase: footprints are disjoint across pairs).
inline std::string independentPairsProgram(int Pairs, int Msgs = 2) {
  std::string S;
  for (int I = 0; I != Pairs; ++I)
    S += "chan link" + std::to_string(I) + "[1];\n";
  for (int I = 0; I != Pairs; ++I) {
    std::string Ch = "link" + std::to_string(I);
    S += "proc prod" + std::to_string(I) + "() {\n";
    S += "  var k;\n";
    S += "  for (k = 0; k < " + std::to_string(Msgs) + "; k = k + 1)\n";
    S += "    send(" + Ch + ", k);\n";
    S += "}\n";
    S += "proc cons" + std::to_string(I) + "() {\n";
    S += "  var k;\n";
    S += "  var v;\n";
    S += "  for (k = 0; k < " + std::to_string(Msgs) + "; k = k + 1)\n";
    S += "    v = recv(" + Ch + ");\n";
    S += "}\n";
  }
  for (int I = 0; I != Pairs; ++I) {
    S += "process sp" + std::to_string(I) + " = prod" + std::to_string(I) +
         "();\n";
    S += "process sc" + std::to_string(I) + " = cons" + std::to_string(I) +
         "();\n";
  }
  return S;
}

} // namespace closer

#endif // CLOSER_BENCH_BENCHUTIL_H
