//===- RoundTripTest.cpp - Pretty-printer round-trip properties -------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// emitModuleSource() is the bridge every multi-step workflow used to cross
// between `closer` invocations, so it must not distort programs:
//
//  * A module compiled from source contains no TossBranch nodes (the
//    surface language has no toss statement), so emit -> reparse must
//    reproduce identical CFG node / arc / toss counts.
//  * A closed module lowers TossBranch to `__tossN = VS_toss(k)` plus a
//    branch chain on emission, so one round changes the counts — but the
//    emitted form must be a fixpoint: emitting the reparse of an emission
//    reproduces the emission byte for byte.
//
//===----------------------------------------------------------------------===//

#include "closing/Pipeline.h"

#include "cfg/CfgPrinter.h"

#include "RandomProgram.h"
#include "TestUtil.h"

namespace closer {
namespace {

const char *const ExampleNames[] = {"bounded_buffer.mc", "figure2.mc",
                                    "lock_order_bug.mc",
                                    "resource_manager.mc"};

struct CfgCounts {
  size_t Procs = 0;
  size_t Nodes = 0;
  size_t Arcs = 0;
  size_t TossNodes = 0;

  bool operator==(const CfgCounts &O) const {
    return Procs == O.Procs && Nodes == O.Nodes && Arcs == O.Arcs &&
           TossNodes == O.TossNodes;
  }
};

CfgCounts countModule(const Module &Mod) {
  CfgCounts C;
  C.Procs = Mod.Procs.size();
  for (const ProcCfg &Proc : Mod.Procs)
    for (const CfgNode &Node : Proc.Nodes) {
      ++C.Nodes;
      C.Arcs += Node.Arcs.size();
      if (Node.Kind == CfgNodeKind::TossBranch)
        ++C.TossNodes;
    }
  return C;
}

void expectCountIdenticalRoundTrip(const std::string &Source,
                                   const std::string &Label) {
  std::unique_ptr<Module> Original = mustCompile(Source);
  ASSERT_TRUE(Original != nullptr) << Label;
  CfgCounts Before = countModule(*Original);
  ASSERT_EQ(Before.TossNodes, 0u)
      << Label << ": source-compiled modules cannot contain toss nodes";

  std::string Emitted = emitModuleSource(*Original);
  std::unique_ptr<Module> Reparsed = mustCompile(Emitted);
  ASSERT_TRUE(Reparsed != nullptr)
      << Label << ": emitted source does not reparse:\n"
      << Emitted;
  CfgCounts After = countModule(*Reparsed);
  EXPECT_TRUE(Before == After)
      << Label << ": procs " << Before.Procs << "->" << After.Procs
      << ", nodes " << Before.Nodes << "->" << After.Nodes << ", arcs "
      << Before.Arcs << "->" << After.Arcs << ", toss " << Before.TossNodes
      << "->" << After.TossNodes;
}

TEST(RoundTrip, ExamplesReparseWithIdenticalCounts) {
  for (const char *Name : ExampleNames)
    expectCountIdenticalRoundTrip(readExample(Name), Name);
  expectCountIdenticalRoundTrip(statementMixSource(), "statement mix");
}

TEST(RoundTrip, Figure2ReparsesWithIdenticalCounts) {
  expectCountIdenticalRoundTrip(figure2Source(), "figure2 (embedded)");
}

// Property over the random-program generator: whatever shape the program
// takes, emission never changes what the frontend builds from it.
TEST(RoundTrip, RandomProgramsReparseWithIdenticalCounts) {
  for (uint64_t Seed = 1; Seed <= 40; ++Seed)
    expectCountIdenticalRoundTrip(randomOpenProgram(Seed),
                                  "seed " + std::to_string(Seed));
}

// Closed modules carry TossBranch nodes, which emission lowers to
// `__tossN = VS_toss(k)` plus an if/else chain — so the first round is
// not count-identical by design. It must converge immediately, though:
// emitting the reparse of an emission is byte-identical to the emission.
void expectEmitFixpoint(const Module &Closed, const std::string &Label) {
  std::string S1 = emitModuleSource(Closed);
  std::unique_ptr<Module> M1 = mustCompile(S1);
  ASSERT_TRUE(M1 != nullptr) << Label;
  std::string S2 = emitModuleSource(*M1);
  std::unique_ptr<Module> M2 = mustCompile(S2);
  ASSERT_TRUE(M2 != nullptr) << Label;
  std::string S3 = emitModuleSource(*M2);
  EXPECT_EQ(S2, S3) << Label;
  // And the reparsed closed program keeps its counts from then on.
  EXPECT_TRUE(countModule(*M1) == countModule(*M2)) << Label;
}

TEST(RoundTrip, ClosedExamplesReachEmitFixpoint) {
  for (const char *Name : ExampleNames) {
    CompileResult R = compile(readExample(Name));
    ASSERT_TRUE(R.ok()) << Name << ": " << R.Diags.str();
    expectEmitFixpoint(*R.M, Name);
  }
}

TEST(RoundTrip, ClosedRandomProgramsReachEmitFixpoint) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    CompileResult R = compile(randomOpenProgram(Seed));
    ASSERT_TRUE(R.ok()) << "seed " << Seed << ": " << R.Diags.str();
    expectEmitFixpoint(*R.M, "seed " + std::to_string(Seed));
  }
}

} // namespace
} // namespace closer
