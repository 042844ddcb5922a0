//===- SwitchAppTest.cpp - Tests for the call-processing case study --------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "switchapp/SwitchApp.h"

#include "closing/Pipeline.h"
#include "explorer/Search.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace closer;

namespace {

SwitchAppConfig tinyConfig() {
  SwitchAppConfig C;
  C.NumLines = 1;
  C.NumTrunks = 1;
  C.EventsPerLine = 1;
  return C;
}

TEST(SwitchAppTest, GeneratedSourceCompiles) {
  SwitchAppConfig C;
  C.NumLines = 4;
  C.EventsPerLine = 3;
  std::string Src = generateSwitchAppSource(C);
  auto Mod = mustCompile(Src);
  ASSERT_TRUE(Mod);
  // 4 line handlers + router + registration + handoff + forwarder.
  EXPECT_EQ(Mod->Processes.size(), 8u);
}

TEST(SwitchAppTest, FeatureTogglesChangeTopology) {
  SwitchAppConfig C = tinyConfig();
  C.WithRegistration = false;
  C.WithHandoff = false;
  C.WithForwarding = false;
  auto Mod = mustCompile(generateSwitchAppSource(C));
  ASSERT_TRUE(Mod);
  EXPECT_EQ(Mod->Processes.size(), 2u); // line handler + router.
  EXPECT_EQ(Mod->findComm("regs"), nullptr);
  EXPECT_EQ(Mod->findComm("hoffs"), nullptr);
}

TEST(SwitchAppTest, ClosesAutomatically) {
  SwitchAppConfig C;
  C.NumLines = 2;
  CompileResult R = compile(generateSwitchAppSource(C));
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_GT(R.Closing.EnvCallsRemoved, 0u);
  EXPECT_GT(R.Closing.TossNodesInserted, 0u);

  EnvAnalysis Analysis(*R.M);
  EXPECT_TRUE(Analysis.moduleIsClosed());

  // The line handler's event switch is gone; preserved logic remains in
  // the router (untainted message dispatch).
  const ProcCfg *Handler = R.M->findProc("line_handler");
  ASSERT_NE(Handler, nullptr);
  for (const CfgNode &Node : Handler->Nodes)
    EXPECT_NE(Node.Kind, CfgNodeKind::Switch)
        << "tainted event dispatch should be eliminated";
  const ProcCfg *Router = R.M->findProc("router");
  ASSERT_NE(Router, nullptr);
  bool RouterKeepsSwitch = false;
  for (const CfgNode &Node : Router->Nodes)
    RouterKeepsSwitch |= Node.Kind == CfgNodeKind::Switch;
  EXPECT_TRUE(RouterKeepsSwitch)
      << "untainted protocol dispatch must be preserved";
}

TEST(SwitchAppTest, BugFreeVariantHasNoDeadlocksUpToDepth) {
  SwitchAppConfig C = tinyConfig();
  CompileResult R = compile(generateSwitchAppSource(C));
  ASSERT_TRUE(R.ok()) << R.Diags.str();

  SearchOptions Opts;
  Opts.MaxDepth = 40;
  SearchResult Search = explore(*R.M, Opts);
  const SearchStats &Stats = Search.Stats;
  EXPECT_TRUE(Stats.Completed);
  EXPECT_EQ(Stats.Deadlocks, 0u)
      << (Search.Reports.empty() ? "" : Search.Reports[0].str());
  EXPECT_EQ(Stats.AssertionViolations, 0u);
  EXPECT_GT(Stats.Terminations, 0u);
}

TEST(SwitchAppTest, SeededTrunkLeakIsFoundAfterClosing) {
  SwitchAppConfig C;
  C.NumLines = 2;
  C.NumTrunks = 1;
  C.EventsPerLine = 2;
  C.WithRegistration = false;
  C.WithForwarding = false;
  C.SeedTrunkLeakBug = true;
  CompileResult R = compile(generateSwitchAppSource(C));
  ASSERT_TRUE(R.ok()) << R.Diags.str();

  SearchOptions Opts;
  Opts.MaxDepth = 60;
  Opts.StopOnFirstError = true;
  SearchResult Search = explore(*R.M, Opts);
  EXPECT_GE(Search.Stats.Deadlocks, 1u)
      << "the trunk leak must surface as a deadlock; stats: "
      << Search.Stats.str();
  ASSERT_FALSE(Search.Reports.empty());
  EXPECT_EQ(Search.Reports[0].Kind, ErrorReport::Type::Deadlock);
}

TEST(SwitchAppTest, PreservedAssertionsSurviveClosing) {
  SwitchAppConfig C = tinyConfig();
  CompileResult R = compile(generateSwitchAppSource(C));
  ASSERT_TRUE(R.ok()) << R.Diags.str();

  // The router and registration counters are environment-independent, so
  // their assertions must keep their real arguments.
  size_t PreservedAsserts = 0;
  for (const ProcCfg &Proc : R.M->Procs)
    for (const CfgNode &Node : Proc.Nodes)
      if (Node.Kind == CfgNodeKind::Call &&
          Node.Builtin == BuiltinKind::VsAssert &&
          Node.Args[0]->Kind != ExprKind::Unknown)
        ++PreservedAsserts;
  EXPECT_GE(PreservedAsserts, 3u);
}

TEST(SwitchAppTest, HandlerVariantsScaleCodeSize) {
  SwitchAppConfig One = tinyConfig();
  One.NumLines = 4;
  One.HandlerVariants = 1;
  auto ModOne = mustCompile(generateSwitchAppSource(One));

  SwitchAppConfig Four = One;
  Four.HandlerVariants = 4;
  auto ModFour = mustCompile(generateSwitchAppSource(Four));

  // Four subscriber classes mean four distinct handler procedures.
  EXPECT_EQ(ModFour->Procs.size(), ModOne->Procs.size() + 3);
  EXPECT_GT(ModFour->totalNodes(), ModOne->totalNodes());
  // Processes are assigned round-robin over the variants.
  EXPECT_NE(ModFour->Processes[0].ProcName, ModFour->Processes[1].ProcName);

  // Every variant closes fully.
  CompileResult R = compile(generateSwitchAppSource(Four));
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EnvAnalysis Analysis(*R.M);
  EXPECT_TRUE(Analysis.moduleIsClosed());
}

TEST(SwitchAppTest, VariantUsageAssertionsPreserved) {
  SwitchAppConfig C = tinyConfig();
  C.NumLines = 2;
  C.HandlerVariants = 2;
  CompileResult R = compile(generateSwitchAppSource(C));
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  // The per-class usage accounting is untainted, so its assertion keeps
  // its real argument in every handler variant.
  for (const ProcCfg &Proc : R.M->Procs) {
    if (Proc.Name.rfind("line_handler", 0) != 0)
      continue;
    bool SawRealAssert = false;
    for (const CfgNode &Node : Proc.Nodes)
      if (Node.Kind == CfgNodeKind::Call &&
          Node.Builtin == BuiltinKind::VsAssert)
        SawRealAssert |= Node.Args[0]->Kind != ExprKind::Unknown;
    EXPECT_TRUE(SawRealAssert) << Proc.Name;
  }
}

TEST(SwitchAppTest, ScalesToLargerConfigurations) {
  SwitchAppConfig C;
  C.NumLines = 12;
  C.EventsPerLine = 6;
  CompileResult R = compile(generateSwitchAppSource(C));
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_EQ(R.M->Processes.size(), 16u);
  // Interface fully eliminated even at scale.
  EnvAnalysis Analysis(*R.M);
  EXPECT_TRUE(Analysis.moduleIsClosed());
}

} // namespace
