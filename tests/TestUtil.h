//===- TestUtil.h - Shared helpers for the closer test suite ---*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#ifndef CLOSER_TESTS_TESTUTIL_H
#define CLOSER_TESTS_TESTUTIL_H

#include "cfg/CfgBuilder.h"
#include "cfg/CfgVerifier.h"
#include "explorer/Search.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace closer {

/// Reads examples/minic/<Name> from the source tree (CLOSER_SOURCE_DIR is
/// defined for every test binary by tests/CMakeLists.txt).
inline std::string readExample(const std::string &Name) {
  std::string Path = std::string(CLOSER_SOURCE_DIR) + "/examples/minic/" + Name;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Compiles MiniC source, failing the test with diagnostics on error.
inline std::unique_ptr<Module> mustCompile(const std::string &Source) {
  DiagnosticEngine Diags;
  std::unique_ptr<Module> Mod = compileMiniC(Source, Diags);
  EXPECT_TRUE(Mod != nullptr) << Diags.str();
  if (Mod) {
    EXPECT_TRUE(verifyModule(*Mod, Diags)) << Diags.str();
  }
  return Mod;
}

/// The statistics that describe the search tree itself. Replay effort
/// (Runs, Transitions, TransitionsReplayed, TransitionsRestored) and the
/// scheduler and allocator counters legitimately differ between job
/// counts, checkpoint intervals and schedules, so they are absent.
inline std::string treeShape(const SearchStats &S) {
  std::string Out;
  Out += "states=" + std::to_string(S.StatesVisited);
  Out += " tree-transitions=" + std::to_string(S.TreeTransitions);
  Out += " deadlocks=" + std::to_string(S.Deadlocks);
  Out += " terminations=" + std::to_string(S.Terminations);
  Out += " assertion-violations=" + std::to_string(S.AssertionViolations);
  Out += " divergences=" + std::to_string(S.Divergences);
  Out += " runtime-errors=" + std::to_string(S.RuntimeErrors);
  Out += " depth-limit-hits=" + std::to_string(S.DepthLimitHits);
  Out += " sleep-prunes=" + std::to_string(S.SleepSetPrunes);
  Out += " covered=" + std::to_string(S.VisibleOpsCovered);
  Out += S.Completed ? " complete" : " stopped";
  return Out;
}

/// Order-independent digest of the reported errors: kind plus the
/// replayable choice sequence identifies a report uniquely.
inline std::vector<std::string>
errorSet(const std::vector<ErrorReport> &Reports) {
  std::vector<std::string> Out;
  for (const ErrorReport &R : Reports)
    Out.push_back(std::to_string(static_cast<int>(R.Kind)) + ":" +
                  replayToString(R.Choices));
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Report identity under state caching: the erroneous state plus the error
/// details. A cached state is expanded by whichever worker inserts its
/// fingerprint first, so the representative trace varies with scheduling
/// while the (state, error) set does not.
inline std::vector<std::string>
stateErrorSet(const std::vector<ErrorReport> &Reports) {
  std::vector<std::string> Out;
  for (const ErrorReport &R : Reports)
    Out.push_back(std::to_string(static_cast<int>(R.Kind)) + ":" +
                  std::to_string(R.StateFp) + ":" +
                  std::to_string(static_cast<int>(R.Error.Kind)) + ":" +
                  std::to_string(R.Process));
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// The paper's Figure 2 procedure p, in MiniC. The process argument `env`
/// opens the system: x is provided by the environment. The paper's
/// send('even', cnt) / send('odd', cnt) pair is modeled as two channels
/// carrying the (untainted) counter.
inline const char *figure2Source() {
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

/// The paper's Figure 3 procedure q: same as p but x is shifted each
/// iteration, so the closed program is an optimal translation.
inline const char *figure3Source() {
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

/// Each kind of declaration and most kinds of statement in one program:
/// for, switch with fall-through arms and a default, while with continue
/// and break, a call with a returned value, and an assertion.
inline const char *statementMixSource() {
  return R"(
chan c[2];
sem s(1);
shared sv = 4;
var g = 1;

proc helper(a, b) {
  var t;
  t = a % (b + 1);
  if (t == 0 && a < b)
    return a;
  return b;
}

proc main(x) {
  var i;
  var acc = 0;
  for (i = 0; i < 4; i = i + 1) {
    acc = helper(acc, i);
    switch (acc % 3) {
    case 0:
      send(c, acc);
    case 1:
      sem_wait(s);
      sem_signal(s);
    default:
      write(sv, acc);
    }
  }
  while (acc > 0) {
    acc = acc - 1;
    if (acc == 2)
      continue;
    if (acc == 1)
      break;
  }
  VS_assert(acc >= 0);
}

process m = main(env);
)";
}

} // namespace closer

#endif // CLOSER_TESTS_TESTUTIL_H
