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
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

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

} // namespace closer

#endif // CLOSER_TESTS_TESTUTIL_H
