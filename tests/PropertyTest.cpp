//===- PropertyTest.cpp - Property-based checks of Theorems 6/7 ------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// For a sweep of randomly generated open programs S:
//
//  * Lemma 5    — close(S) contains no environment interface;
//  * stability  — close(close(S)) == close(S);
//  * Theorem 6  — every visible trace of S x E_S (executed as the naive
//                 closing over a finite domain) is subsumed by a visible
//                 trace of close(S);
//  * Theorem 7  — deadlocks of S x E_S appear in close(S), and violations
//                 of preserved assertions are preserved;
//  * size bound — the transformation never enlarges the CFG beyond the
//                 inserted toss nodes.
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgPrinter.h"
#include "closing/Pipeline.h"
#include "envgen/NaiveClose.h"
#include "explorer/Search.h"
#include "RandomProgram.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <set>

using namespace closer;

namespace {

class PropertyTest : public ::testing::TestWithParam<uint64_t> {};

SearchOptions boundedSearch(size_t Depth, uint64_t MaxRuns) {
  SearchOptions Opts;
  Opts.MaxDepth = Depth;
  Opts.MaxRuns = MaxRuns;
  Opts.MaxReports = 256;
  // Keep reductions off: the theorems quantify over *all* behaviors.
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  return Opts;
}

TEST_P(PropertyTest, ClosedModuleHasNoEnvironmentInterface) {
  CompileResult R = compile(randomOpenProgram(GetParam()));
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EnvAnalysis Analysis(*R.M);
  EXPECT_TRUE(Analysis.moduleIsClosed())
      << printModule(*R.M);
}

TEST_P(PropertyTest, ClosingIsStable) {
  CompileResult R = compile(randomOpenProgram(GetParam()));
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  Module Again = closeModule(*R.M);
  EXPECT_EQ(printModule(Again), printModule(*R.M));
}

TEST_P(PropertyTest, TransformationNeverGrowsBeyondTossNodes) {
  CompileResult R = compile(randomOpenProgram(GetParam()));
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_LE(R.Closing.NodesAfter,
            R.Closing.NodesBefore + R.Closing.TossNodesInserted);
}

TEST_P(PropertyTest, TraceInclusionTheorem6) {
  std::string Src = randomOpenProgram(GetParam());
  DiagnosticEngine Diags;
  auto Open = compileAndVerify(Src, Diags);
  ASSERT_TRUE(Open) << Diags.str() << "\n" << Src;

  // S x E_S over the domain {0,1,2}.
  Module Naive = naiveCloseModule(*Open, {2});
  std::vector<Trace> NaiveTraces =
      collectTraces(Naive, boundedSearch(8, 300), 64).Traces;

  CompileResult R = compile(Src);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  TraceSet Closed = collectTraces(*R.M, boundedSearch(8, 60000), 30000);
  if (!Closed.Stats.Completed)
    GTEST_SKIP() << "closed-side search budget exhausted for this seed";

  for (const Trace &NT : NaiveTraces) {
    bool Covered = false;
    for (const Trace &CT : Closed.Traces)
      if (traceSubsumes(CT, NT)) {
        Covered = true;
        break;
      }
    ASSERT_TRUE(Covered) << "uncovered open-system trace (seed "
                         << GetParam() << "):\n"
                         << traceToString(NT) << "\nprogram:\n"
                         << Src;
  }
}

TEST_P(PropertyTest, DeadlockPreservationTheorem7) {
  std::string Src = randomOpenProgram(GetParam());
  DiagnosticEngine Diags;
  auto Open = compileAndVerify(Src, Diags);
  ASSERT_TRUE(Open) << Diags.str();

  Module Naive = naiveCloseModule(*Open, {2});
  SearchStats NaiveStats = explore(Naive, boundedSearch(10, 500)).Stats;
  if (NaiveStats.Deadlocks == 0)
    return; // Nothing to preserve for this seed.

  CompileResult R = compile(Src);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  SearchStats ClosedStats = explore(*R.M, boundedSearch(10, 100000)).Stats;
  if (!ClosedStats.Completed)
    GTEST_SKIP() << "closed-side search budget exhausted for this seed";
  EXPECT_GE(ClosedStats.Deadlocks, 1u)
      << "open system deadlocks but closed system does not (seed "
      << GetParam() << "):\n"
      << Src;
}

TEST_P(PropertyTest, AssertionPreservationTheorem7) {
  std::string Src = randomOpenProgram(GetParam());
  DiagnosticEngine Diags;
  auto Open = compileAndVerify(Src, Diags);
  ASSERT_TRUE(Open) << Diags.str();

  CompileResult R = compile(Src);
  ASSERT_TRUE(R.ok()) << R.Diags.str();

  // The theorem only covers assertions the transformation preserved; skip
  // seeds where some assertion payload was eliminated.
  for (const ProcCfg &Proc : R.M->Procs)
    for (const CfgNode &Node : Proc.Nodes)
      if (Node.Kind == CfgNodeKind::Call &&
          Node.Builtin == BuiltinKind::VsAssert &&
          Node.Args[0]->Kind == ExprKind::Unknown)
        return;

  Module Naive = naiveCloseModule(*Open, {2});
  SearchStats NaiveStats = explore(Naive, boundedSearch(10, 500)).Stats;
  if (NaiveStats.AssertionViolations == 0)
    return;

  SearchStats ClosedStats = explore(*R.M, boundedSearch(10, 100000)).Stats;
  if (!ClosedStats.Completed)
    GTEST_SKIP() << "closed-side search budget exhausted for this seed";
  EXPECT_GE(ClosedStats.AssertionViolations, 1u)
      << "assertion violation lost by closing (seed " << GetParam()
      << "):\n"
      << Src;
}

TEST_P(PropertyTest, EmittedClosedSourceRoundTrips) {
  CompileResult R = compile(randomOpenProgram(GetParam()));
  ASSERT_TRUE(R.ok()) << R.Diags.str();

  std::string Emitted = emitModuleSource(*R.M);
  DiagnosticEngine Diags;
  auto Reparsed = compileAndVerify(Emitted, Diags);
  ASSERT_TRUE(Reparsed) << Diags.str() << "\nemitted source:\n" << Emitted;

  // The reparsed program must show the same visible behaviors.
  std::vector<Trace> TracesA =
      collectTraces(*R.M, boundedSearch(6, 4000), 2000).Traces;
  std::vector<Trace> TracesB =
      collectTraces(*Reparsed, boundedSearch(6, 4000), 2000).Traces;

  auto Key = [](const Trace &T) { return traceToString(T); };
  std::set<std::string> SetA, SetB;
  for (const Trace &T : TracesA)
    SetA.insert(Key(T));
  for (const Trace &T : TracesB)
    SetB.insert(Key(T));
  EXPECT_EQ(SetA, SetB) << "emitted source:\n" << Emitted;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range<uint64_t>(1, 49));
// A second topology: three processes, deeper nesting, no helper (see
// randomOpenProgram).
INSTANTIATE_TEST_SUITE_P(WideSeeds, PropertyTest,
                         ::testing::Range<uint64_t>(1000, 1017));

//===----------------------------------------------------------------------===//
// Lemma 1 spot check: perturbing the environment input never changes a
// variable outside V_I at its use, on the Figure 3 program.
//===----------------------------------------------------------------------===//

TEST(TaintSoundnessTest, EnvPerturbationOnlyChangesTaintedVars) {
  // Execute figure 3's q with x = 5 and x = 9; the visible payloads (cnt)
  // must be identical because cnt is untainted — only the branch choices
  // (even/odd channel) differ.
  auto Mod = mustCompile(figure3Source());
  Module Naive5 = naiveCloseModule(*Mod, {5});
  Module Naive9 = naiveCloseModule(*Mod, {9});

  class MaxProvider : public ChoiceProvider {
  public:
    int64_t choose(ChoiceKind, int64_t Bound) override { return Bound; }
  };

  auto PayloadsOf = [](Module &M) {
    System Sys(M);
    MaxProvider Max;
    Sys.reset(Max);
    while (!Sys.enabledProcesses().empty())
      Sys.executeTransition(Sys.enabledProcesses().front(), Max);
    std::vector<int64_t> Payloads;
    for (const VisibleEvent &E : Sys.trace())
      Payloads.push_back(E.Payload.asInt());
    return Payloads;
  };

  EXPECT_EQ(PayloadsOf(Naive5), PayloadsOf(Naive9));
}

} // namespace
