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
//  * Every expression kind clones to an equal tree, and both trees die
//    cleanly: an Expr's kind says which member of each of its unions is
//    live, and AsanTest runs this suite.
//
//===----------------------------------------------------------------------===//

#include "closing/Pipeline.h"

#include "cfg/CfgPrinter.h"
#include "lang/Parser.h"

#include "RandomProgram.h"
#include "TestUtil.h"

#include <functional>
#include <set>

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

TEST(RoundTrip, EveryExprKindClonesToAnEqualTree) {
  const char *Source = R"(
    chan c[1];
    proc f(a, b, d, e) { return; }
    proc p(x) {
      var y;
      var a[4];
      var q;
      q = &y;
      y = f(a[x + 1], -*q, &a[2], !(x < 'even'));
      *q = unknown;
      if (a[*q] == 3 && -x != 42) y = y * (x - 1);
      send(c, y % 2);
    }
    process m = p(env);
  )";
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseMiniC(Source, Diags);
  ASSERT_TRUE(Prog) << Diags.str();

  // Clones every expression and subexpression, checks it against its
  // original, and drops the clone right away.
  std::set<ExprKind> Seen;
  std::function<void(const Expr *)> CheckExpr = [&](const Expr *E) {
    if (!E)
      return;
    Seen.insert(E->Kind);
    ExprPtr Copy = E->clone();
    EXPECT_TRUE(Expr::equals(E, Copy.get()));
    EXPECT_EQ(Copy->Kind, E->Kind);
    E->forEachChild(CheckExpr);
  };
  std::function<void(const Stmt *)> CheckStmt = [&](const Stmt *S) {
    if (!S)
      return;
    for (const Expr *E : {S->Cond.get(), S->Target.get(), S->Value.get()})
      CheckExpr(E);
    for (const Stmt *Sub : {S->ThenBody.get(), S->ElseBody.get(),
                            S->InitStmt.get(), S->StepStmt.get()})
      CheckStmt(Sub);
    for (const StmtPtr &Sub : S->Body)
      CheckStmt(Sub.get());
  };
  for (const ProcDecl &Proc : Prog->Procs)
    CheckStmt(Proc.Body.get());

  EXPECT_EQ(Seen.size(), 9u) << "the source must hold every ExprKind";
  // A clone of a whole call differs from a call with one argument changed.
  const Expr *Call = Prog->Procs[1].Body->Body[4]->Value.get();
  ASSERT_EQ(Call->Kind, ExprKind::Call);
  ExprPtr Changed = Call->clone();
  Changed->Args[3] = Expr::intLit(0);
  EXPECT_FALSE(Expr::equals(Call, Changed.get()));
}

} // namespace
} // namespace closer
