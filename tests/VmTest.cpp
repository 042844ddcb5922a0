//===- VmTest.cpp - Bytecode VM: lowering, execution, differential gate -----===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The bytecode execution contract:
//  * compileModule lowers every verified module, and the compiler fuses
//    literal operands into immediate-form instructions (flipping the
//    comparison when the literal is on the left);
//  * explore() produces bit-identical tree-shaped statistics and report
//    sets under --exec=interp, --exec=vm, and --exec=both, on the bundled
//    examples and on a random-program fuzz corpus driven through the
//    closing pipeline (the differential gate);
//  * the lower-bytecode pass hands its CompiledModule to
//    SearchOptions::VmCode so explore() need not recompile.
//
//===----------------------------------------------------------------------===//

#include "closing/Pipeline.h"
#include "explorer/Search.h"
#include "vm/Bytecode.h"
#include "vm/Vm.h"

#include "RandomProgram.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace closer;

namespace {

/// The engine-independent observables of a search: every tree-shaped
/// statistic plus the raw transition count (identical across engines for a
/// fixed checkpoint interval, since replay structure is engine-blind).
std::vector<uint64_t> engineShape(const SearchStats &S) {
  return {S.StatesVisited,
          S.Runs,
          S.TreeTransitions,
          S.Transitions,
          S.Deadlocks,
          S.Terminations,
          S.AssertionViolations,
          S.Divergences,
          S.RuntimeErrors,
          S.DepthLimitHits,
          S.SleepSetPrunes,
          static_cast<uint64_t>(S.Completed)};
}

/// Order-independent digest of the report set.
std::vector<std::string> reportSet(const std::vector<ErrorReport> &Reports) {
  std::vector<std::string> Out;
  for (const ErrorReport &R : Reports)
    Out.push_back(std::to_string(static_cast<int>(R.Kind)) + ":" +
                  std::to_string(R.StateFp) + ":" +
                  std::to_string(static_cast<int>(R.Error.Kind)) + ":" +
                  std::to_string(R.Process) + ":" +
                  std::to_string(R.Depth));
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Runs the same search under all three exec modes and requires identical
/// observables. Both-mode additionally cross-checks every transition
/// internally (it aborts the process on divergence, so merely finishing is
/// already a strong statement).
void expectEnginesAgree(const Module &Mod, SearchOptions Opts,
                        const std::string &Label) {
  Opts.MaxReports = 4096;

  Opts.Exec = ExecMode::Interp;
  SearchResult I = explore(Mod, Opts);

  Opts.Exec = ExecMode::Vm;
  SearchResult V = explore(Mod, Opts);

  Opts.Exec = ExecMode::Both;
  SearchResult B = explore(Mod, Opts);

  EXPECT_EQ(engineShape(I.Stats), engineShape(V.Stats)) << Label << " (vm)";
  EXPECT_EQ(engineShape(I.Stats), engineShape(B.Stats)) << Label << " (both)";
  EXPECT_EQ(reportSet(I.Reports), reportSet(V.Reports)) << Label << " (vm)";
  EXPECT_EQ(reportSet(I.Reports), reportSet(B.Reports)) << Label << " (both)";
}

// ---------------------------------------------------------------------------
// Lowering unit tests.
// ---------------------------------------------------------------------------

TEST(VmTest, CompilesEveryBundledExample) {
  for (const char *Name : {"figure2.mc", "lock_order_bug.mc",
                           "bounded_buffer.mc", "resource_manager.mc"}) {
    auto Mod = mustCompile(readExample(Name));
    ASSERT_TRUE(Mod) << Name;
    auto Code = vm::compileModule(*Mod);
    ASSERT_TRUE(Code) << Name;
    EXPECT_GT(Code->instructionCount(), 0u) << Name;
    EXPECT_GT(Code->MaxRegs, 0u) << Name;
    EXPECT_EQ(Code->Procs.size(), Mod->Procs.size()) << Name;
    // Per-node entry tables must cover the whole CFG.
    for (size_t P = 0; P != Code->Procs.size(); ++P)
      EXPECT_EQ(Code->Procs[P].NodeOffset.size(), Mod->Procs[P].Nodes.size())
          << Name << " proc " << P;
  }
  // The paper's figure programs (test fixtures rather than example files),
  // both open and closed.
  for (const char *Source : {figure2Source(), figure3Source()}) {
    auto Open = mustCompile(Source);
    ASSERT_TRUE(Open);
    EXPECT_GT(vm::compileModule(*Open)->instructionCount(), 0u);
    CompileResult R = compile(Source);
    ASSERT_TRUE(R.ok()) << R.Diags.str();
    EXPECT_GT(vm::compileModule(*R.M)->instructionCount(), 0u);
  }
}

TEST(VmTest, LiteralOperandsFuseToImmediateForms) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var x = 3;
  var v;
  v = x + 1;
  if (x < 10)
    v = v * 2;
  send(c, v);
}

process m = main();
)");
  auto Code = vm::compileModule(*Mod);
  ASSERT_TRUE(Code);
  std::string Dis = vm::disassemble(*Code);
  // RHS literals fuse directly.
  EXPECT_NE(Dis.find(" addi "), std::string::npos) << Dis;
  EXPECT_NE(Dis.find(" lti "), std::string::npos) << Dis;
  EXPECT_NE(Dis.find(" muli "), std::string::npos) << Dis;
}

TEST(VmTest, LeftLiteralComparisonFlipsItsImmediateForm) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var x = 3;
  var v;
  v = 5 < x;
  v = v + (5 - x);
  send(c, v);
}

process m = main();
)");
  auto Code = vm::compileModule(*Mod);
  ASSERT_TRUE(Code);
  std::string Dis = vm::disassemble(*Code);
  // 5 < x becomes x > 5: the flipped immediate comparison.
  EXPECT_NE(Dis.find(" gti "), std::string::npos) << Dis;
  EXPECT_EQ(Dis.find(" lti "), std::string::npos) << Dis;
  // 5 - x is NOT commutative: it must stay a two-register subtract.
  EXPECT_NE(Dis.find(" sub "), std::string::npos) << Dis;
  EXPECT_EQ(Dis.find(" subi "), std::string::npos) << Dis;
}

// ---------------------------------------------------------------------------
// Engine-identity on the bundled examples.
// ---------------------------------------------------------------------------

TEST(VmTest, EnginesAgreeOnExamples) {
  for (const char *Name : {"figure2.mc", "lock_order_bug.mc",
                           "bounded_buffer.mc", "resource_manager.mc"}) {
    auto Mod = mustCompile(readExample(Name));
    ASSERT_TRUE(Mod) << Name;
    SearchOptions Opts;
    Opts.MaxDepth = 40;
    expectEnginesAgree(*Mod, Opts, Name);
  }
}

TEST(VmTest, EnginesAgreeOnClosedFigure2UnderPorAblations) {
  CompileResult R = compile(figure2Source());
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  for (bool Por : {true, false}) {
    SearchOptions Opts;
    Opts.MaxDepth = 60;
    Opts.UsePersistentSets = Por;
    Opts.UseSleepSets = Por;
    expectEnginesAgree(*R.M, Opts,
                       std::string("figure2 por=") + (Por ? "on" : "off"));
  }
}

TEST(VmTest, EnginesAgreeWithCheckpointingAndCaching) {
  auto Mod = mustCompile(readExample("bounded_buffer.mc"));
  ASSERT_TRUE(Mod);
  // Checkpointed replay and cached pruning both route through the engine
  // (restores re-execute prefixes under CheckpointInterval=0); each must
  // be engine-blind.
  for (size_t Interval : {size_t{0}, size_t{4}}) {
    SearchOptions Opts;
    Opts.MaxDepth = 400;
    Opts.CheckpointInterval = Interval;
    Opts.StateCacheBits = 18;
    expectEnginesAgree(*Mod, Opts,
                       "bounded_buffer interval=" + std::to_string(Interval));
  }
}

// ---------------------------------------------------------------------------
// The differential fuzz gate: random open programs through the closing
// pipeline, explored under the oracle.
// ---------------------------------------------------------------------------

TEST(VmTest, DifferentialFuzzGateOnClosedRandomPrograms) {
  // Seeds >= 1000 use the wider three-process shape.
  for (uint64_t Seed : {3u, 17u, 99u, 1003u, 1500u}) {
    std::string Label = "seed " + std::to_string(Seed);
    CompileResult R = compile(randomOpenProgram(Seed));
    ASSERT_TRUE(R.ok()) << Label << "\n" << R.Diags.str();
    SearchOptions Opts;
    Opts.MaxDepth = 60;
    expectEnginesAgree(*R.M, Opts, Label);
  }
}

TEST(VmTest, DifferentialFuzzGateOnOpenRandomPrograms) {
  // The open modules exercise the EnvVal path (environment inputs) that
  // closed modules replace with toss choices.
  for (uint64_t Seed : {5u, 42u, 1007u}) {
    std::string Label = "open seed " + std::to_string(Seed);
    auto Mod = mustCompile(randomOpenProgram(Seed));
    ASSERT_TRUE(Mod) << Label;
    SearchOptions Opts;
    Opts.MaxDepth = 40;
    expectEnginesAgree(*Mod, Opts, Label);
  }
}

// ---------------------------------------------------------------------------
// Pipeline integration: the lower-bytecode pass feeds VmCode.
// ---------------------------------------------------------------------------

TEST(VmTest, LowerBytecodePassProducesSharableCode) {
  PipelineOptions POpts;
  POpts.Passes = {"close", "lower-bytecode"};
  CompileResult C = compile(figure2Source(), POpts);
  ASSERT_TRUE(C.ok()) << C.Diags.str();
  ASSERT_TRUE(C.Bytecode);
  EXPECT_GT(C.Bytecode->instructionCount(), 0u);

  // Reuse the pass-produced code without recompiling, and require the same
  // observables as a from-scratch interpreter run.
  SearchOptions Interp;
  Interp.MaxDepth = 60;
  Interp.MaxReports = 4096;
  SearchResult RI = explore(*C.M, Interp);

  SearchOptions WithCode = Interp;
  WithCode.Exec = ExecMode::Vm;
  WithCode.VmCode = C.Bytecode;
  SearchResult RV = explore(*C.M, WithCode);

  EXPECT_EQ(engineShape(RI.Stats), engineShape(RV.Stats));
  EXPECT_EQ(reportSet(RI.Reports), reportSet(RV.Reports));
}

TEST(VmTest, PipelineWithoutLoweringLeavesBytecodeNull) {
  CompileResult C = compile(figure2Source());
  ASSERT_TRUE(C.ok()) << C.Diags.str();
  EXPECT_FALSE(C.Bytecode);
}

} // namespace
