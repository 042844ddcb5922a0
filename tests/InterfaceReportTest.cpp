//===- InterfaceReportTest.cpp - Interface-inventory tests -------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "closing/InterfaceReport.h"

#include "closing/Pipeline.h"
#include "switchapp/SwitchApp.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace closer;

namespace {

size_t countKind(const InterfaceReport &R, InterfacePoint::Kind K) {
  size_t N = 0;
  for (const InterfacePoint &P : R.Points)
    N += P.K == K;
  return N;
}

TEST(InterfaceReportTest, InventoriesAllEntryKinds) {
  auto Mod = mustCompile(R"(
chan data[2];

proc producer(mode) {
  var v;
  v = env_input();
  send(data, v + mode);
  env_output(v);
}

process p = producer(env);
)");
  InterfaceReport R = buildInterfaceReport(*Mod);
  EXPECT_FALSE(R.isClosed());
  EXPECT_EQ(countKind(R, InterfacePoint::Kind::EnvArg), 1u);
  EXPECT_EQ(countKind(R, InterfacePoint::Kind::EnvInputCall), 1u);
  EXPECT_EQ(countKind(R, InterfacePoint::Kind::EnvOutputCall), 1u);

  // The channel carries env data; the producer parameter is tainted.
  EXPECT_EQ(R.TaintedChannels, std::vector<std::string>{"data"});
  ASSERT_EQ(R.TaintedParams.size(), 1u);
  EXPECT_EQ(R.TaintedParams[0], "producer(mode)");
}

TEST(InterfaceReportTest, ClosedProgramReportsClean) {
  CompileResult R = compile(figure2Source());
  ASSERT_TRUE(R.ok());
  InterfaceReport Report = buildInterfaceReport(*R.M);
  EXPECT_TRUE(Report.isClosed());
  EXPECT_EQ(Report.NodesDependentOnEnv, 0u);
  EXPECT_NE(Report.str().find("(none: the program is closed)"),
            std::string::npos);
}

TEST(InterfaceReportTest, OpenFigure2Inventory) {
  auto Mod = mustCompile(figure2Source());
  InterfaceReport Report = buildInterfaceReport(*Mod);
  EXPECT_FALSE(Report.isClosed());
  EXPECT_EQ(countKind(Report, InterfacePoint::Kind::EnvArg), 1u);
  // y = x % 2 and the y == 0 test depend on the environment.
  EXPECT_EQ(Report.NodesDependentOnEnv, 2u);
  EXPECT_GT(Report.TotalNodes, Report.NodesDependentOnEnv);
}

TEST(InterfaceReportTest, SwitchAppInterfaceScalesWithFeatures) {
  SwitchAppConfig Small;
  Small.NumLines = 1;
  Small.WithForwarding = false;
  auto ModSmall = mustCompile(generateSwitchAppSource(Small));
  InterfaceReport RSmall = buildInterfaceReport(*ModSmall);

  SwitchAppConfig Big = Small;
  Big.WithForwarding = true;
  auto ModBig = mustCompile(generateSwitchAppSource(Big));
  InterfaceReport RBig = buildInterfaceReport(*ModBig);

  // Forwarding adds its own env consultation.
  EXPECT_GT(countKind(RBig, InterfacePoint::Kind::EnvInputCall),
            countKind(RSmall, InterfacePoint::Kind::EnvInputCall));
}

TEST(InterfaceReportTest, RenderingMentionsSpread) {
  auto Mod = mustCompile(R"(
shared sv;
var g;

proc writer() {
  var e;
  e = env_input();
  write(sv, e);
  g = e;
}

proc getter() {
  return g;
}

proc main() {
  var x;
  writer();
  x = getter();
}

process m = main();
)");
  InterfaceReport Report = buildInterfaceReport(*Mod);
  std::string Text = Report.str();
  EXPECT_NE(Text.find("tainted shared vars: sv"), std::string::npos) << Text;
  EXPECT_NE(Text.find("tainted globals: g"), std::string::npos) << Text;
  EXPECT_NE(Text.find("tainted returns: getter"), std::string::npos) << Text;
}

} // namespace
