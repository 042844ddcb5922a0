//===- RandomProgram.h - Random open-program generator ---------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates random *open* MiniC programs for property-based testing of the
/// closing transformation (Theorems 6/7, Lemma 5). Programs are valid by
/// construction and all loops are counter-bounded, so every execution
/// terminates (possibly blocked on communication — deadlocks are a feature,
/// not a bug, for these tests).
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_TESTS_RANDOMPROGRAM_H
#define CLOSER_TESTS_RANDOMPROGRAM_H

#include "support/Random.h"

#include <string>
#include <vector>

namespace closer {

struct RandomProgramConfig {
  uint64_t Seed = 1;
  int NumProcesses = 2;
  int NumChannels = 2;
  int NumSemaphores = 1;
  int StatementsPerProc = 6;
  int MaxNestingDepth = 2;
  bool WithEnvInputs = true;
  bool WithAssertions = true;
  bool WithHelperProc = true;
  /// Emit pointer statements (a dedicated pointer variable that always
  /// holds the address of some local, so dereferences never fault); the
  /// closing transformation then has to run the may-alias machinery.
  bool WithPointers = true;
};

class RandomProgramGenerator {
public:
  explicit RandomProgramGenerator(const RandomProgramConfig &Config)
      : Config(Config), R(Config.Seed) {}

  std::string generate() {
    Out.clear();
    for (int C = 0; C != Config.NumChannels; ++C)
      line("chan ch" + std::to_string(C) + "[" +
           std::to_string(1 + R.below(3)) + "];");
    for (int S = 0; S != Config.NumSemaphores; ++S)
      line("sem sm" + std::to_string(S) + "(" + std::to_string(R.below(2)) +
           ");");
    line("shared sv = 0;");
    line("");

    if (Config.WithHelperProc) {
      // A helper with data flow through parameter and return value.
      line("proc helper(h) {");
      line("  var t = h * 2;");
      line("  if (t > 4)");
      line("    t = t - 1;");
      line("  return t + 1;");
      line("}");
      line("");
    }

    for (int P = 0; P != Config.NumProcesses; ++P)
      emitProcessProc(P);

    for (int P = 0; P != Config.NumProcesses; ++P) {
      bool EnvArg = R.chance(1, 2);
      line("process inst" + std::to_string(P) + " = work" +
           std::to_string(P) + "(" +
           (EnvArg ? std::string("env")
                   : std::to_string(R.range(0, 5))) +
           ");");
    }
    return Out;
  }

private:
  void line(const std::string &Text) {
    Out += Text;
    Out += '\n';
  }

  std::string randomChan() {
    return "ch" + std::to_string(R.below(Config.NumChannels));
  }
  std::string randomSem() {
    return "sm" + std::to_string(R.below(Config.NumSemaphores));
  }

  /// A random expression over the declared locals (v0..v2) and parameter p.
  std::string randomExpr(int Depth = 0) {
    if (Depth >= 2 || R.chance(2, 5)) {
      switch (R.below(3)) {
      case 0:
        return std::to_string(R.range(0, 9));
      case 1:
        return "v" + std::to_string(R.below(3));
      default:
        return "p";
      }
    }
    static const char *Ops[] = {"+", "-", "*"};
    std::string Lhs = randomExpr(Depth + 1);
    std::string Rhs = randomExpr(Depth + 1);
    if (R.chance(1, 5))
      return "(" + Lhs + ") % " + std::to_string(R.range(2, 5));
    return "(" + Lhs + ") " + Ops[R.below(3)] + " (" + Rhs + ")";
  }

  std::string randomCond() {
    static const char *Cmp[] = {"<", "<=", ">", ">=", "==", "!="};
    // Drawn right to left, the order every seed's program was generated in.
    std::string Rhs = randomExpr(1);
    const char *Op = Cmp[R.below(6)];
    std::string Lhs = randomExpr(1);
    return "(" + Lhs + ") " + Op + " (" + Rhs + ")";
  }

  void emitStmt(int Depth, std::string Pad) {
    switch (R.below(10)) {
    case 0: // Plain assignment.
    case 1:
      line(Pad + "v" + std::to_string(R.below(3)) + " = " + randomExpr() +
           ";");
      return;
    case 2: // Environment input.
      if (Config.WithEnvInputs) {
        line(Pad + "v" + std::to_string(R.below(3)) + " = env_input();");
        return;
      }
      [[fallthrough]];
    case 3: // Send.
      line(Pad + "send(" + randomChan() + ", " + randomExpr(1) + ");");
      return;
    case 4: // Receive.
      line(Pad + "v" + std::to_string(R.below(3)) + " = recv(" +
           randomChan() + ");");
      return;
    case 5: // Semaphore pulse.
      if (R.chance(1, 2)) {
        line(Pad + "sem_signal(" + randomSem() + ");");
      } else {
        line(Pad + "sem_wait(" + randomSem() + ");");
        line(Pad + "sem_signal(" + randomSem() + ");");
      }
      return;
    case 6: // Toss.
      line(Pad + "v" + std::to_string(R.below(3)) + " = VS_toss(" +
           std::to_string(R.range(1, 3)) + ");");
      return;
    case 7: // Conditional.
      if (Depth < Config.MaxNestingDepth) {
        line(Pad + "if (" + randomCond() + ") {");
        emitStmt(Depth + 1, Pad + "  ");
        line(Pad + "} else {");
        emitStmt(Depth + 1, Pad + "  ");
        line(Pad + "}");
        return;
      }
      [[fallthrough]];
    case 8: // Bounded loop.
      if (Depth < Config.MaxNestingDepth) {
        std::string I = "i" + std::to_string(Depth) + "_" +
                        std::to_string(LoopCounter++);
        line(Pad + "var " + I + ";");
        line(Pad + "for (" + I + " = 0; " + I + " < " +
             std::to_string(R.range(1, 3)) + "; " + I + " = " + I +
             " + 1) {");
        emitStmt(Depth + 1, Pad + "  ");
        line(Pad + "}");
        return;
      }
      [[fallthrough]];
    case 9: // Assertion, pointers, helper call, or shared-variable access.
      if (Config.WithAssertions && R.chance(1, 3)) {
        line(Pad + "VS_assert(" + randomCond() + ");");
        return;
      }
      if (Config.WithPointers && R.chance(1, 3)) {
        switch (R.below(3)) {
        case 0: // Retarget the pointer (always at a valid local).
          line(Pad + "ptr = &v" + std::to_string(R.below(3)) + ";");
          break;
        case 1: // Store through it.
          line(Pad + "*ptr = " + randomExpr(1) + ";");
          break;
        default: // Load through it.
          line(Pad + "v" + std::to_string(R.below(3)) + " = *ptr;");
          break;
        }
        return;
      }
      if (Config.WithHelperProc && R.chance(1, 3)) {
        line(Pad + "v" + std::to_string(R.below(3)) + " = helper(" +
             randomExpr(1) + ");");
        return;
      }
      if (R.chance(1, 2))
        line(Pad + "write(sv, " + randomExpr(1) + ");");
      else
        line(Pad + "v" + std::to_string(R.below(3)) + " = read(sv);");
      return;
    }
  }

  void emitProcessProc(int P) {
    line("proc work" + std::to_string(P) + "(p) {");
    line("  var v0 = 0;");
    line("  var v1 = 1;");
    line("  var v2 = 2;");
    if (Config.WithPointers) {
      line("  var ptr;");
      line("  ptr = &v0;");
    }
    for (int S = 0; S != Config.StatementsPerProc; ++S)
      emitStmt(0, "  ");
    line("}");
    line("");
  }

  RandomProgramConfig Config;
  Rng R;
  std::string Out;
  int LoopCounter = 0;
};

/// Convenience: generate the source for \p Seed. Seeds below 1000 use the
/// default shape; seeds in [1000, 2000) use a wider shape (three processes,
/// deeper nesting, no helper procedure) so the property suites cover more
/// than one program topology.
inline std::string randomOpenProgram(uint64_t Seed) {
  RandomProgramConfig C;
  C.Seed = Seed;
  if (Seed >= 1000 && Seed < 2000) {
    C.NumProcesses = 3;
    C.NumChannels = 3;
    C.StatementsPerProc = 5;
    C.MaxNestingDepth = 3;
    C.WithHelperProc = false;
  }
  return RandomProgramGenerator(C).generate();
}

} // namespace closer

#endif // CLOSER_TESTS_RANDOMPROGRAM_H
