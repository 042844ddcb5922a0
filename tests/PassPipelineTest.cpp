//===- PassPipelineTest.cpp - Pass-manager pipeline tests -------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// Covers closer::compile() and the pass infrastructure beneath it: the
// default pipeline must close, the pass table must build every registered
// name, the analysis cache counters must show exactly-once computation on
// a cold close and genuine reuse across partition -> close, --verify-each
// must name the offending pass, and closing must be a fixpoint (re-closing
// an already-closed program changes nothing).
//
//===----------------------------------------------------------------------===//

#include "closing/PassManager.h"
#include "closing/Pipeline.h"

#include "cfg/CfgPrinter.h"
#include "support/CorpusGen.h"

#include "RandomProgram.h"
#include "TestUtil.h"

namespace closer {
namespace {

const char *const ExampleNames[] = {"bounded_buffer.mc", "figure2.mc",
                                    "lock_order_bug.mc",
                                    "resource_manager.mc"};

size_t countTossNodes(const Module &Mod) {
  size_t N = 0;
  for (const ProcCfg &Proc : Mod.Procs)
    for (const CfgNode &Node : Proc.Nodes)
      if (Node.Kind == CfgNodeKind::TossBranch)
        ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// The default pipeline
//===----------------------------------------------------------------------===//

TEST(PassPipeline, DefaultPipelineIsExpanded) {
  CompileResult R = compile(figure2Source());
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  const std::vector<std::string> Expected = {"parse", "sema", "lower",
                                             "verify", "close"};
  EXPECT_EQ(R.EffectiveOptions.Passes, Expected);
  ASSERT_EQ(R.Passes.size(), Expected.size());
  for (size_t I = 0; I != Expected.size(); ++I) {
    EXPECT_EQ(R.Passes[I].Name, Expected[I]);
    EXPECT_GE(R.Passes[I].WallSeconds, 0.0);
  }
  EXPECT_GT(countTossNodes(*R.M) + R.Closing.NodesEliminated, 0u);
}

TEST(PassPipeline, CloseSourceStillReportsOpenModule) {
  CompileResult R = compile(figure2Source());
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  ASSERT_TRUE(R.M != nullptr);
  EXPECT_GT(R.Closing.NodesBefore, 0u);
  // The open module still has its env interface; the closed one does not.
  EXPECT_GT(R.Closing.EnvCallsRemoved + R.Closing.ParamsRemoved, 0u);
}

//===----------------------------------------------------------------------===//
// Analysis cache counters
//===----------------------------------------------------------------------===//

TEST(PassPipeline, ColdCloseComputesEachAnalysisOnce) {
  for (const char *Name : ExampleNames) {
    CompileResult R = compile(readExample(Name));
    ASSERT_TRUE(R.ok()) << Name << ": " << R.Diags.str();
    const AnalysisStats &S = R.Analyses;
    EXPECT_EQ(S.Alias.Computed, 1u) << Name;
    // The closed module has one procedure for each open one.
    EXPECT_EQ(S.DefUse.Computed, R.M->Procs.size()) << Name;
    EXPECT_EQ(S.DefUse.Reused, 0u) << Name;
    EXPECT_EQ(S.EnvTaint.Computed, 1u) << Name;
    EXPECT_EQ(S.EnvTaint.Reused, 0u) << Name;
  }
}

TEST(PassPipeline, PartitionThenCloseReusesCachedAnalyses) {
  PipelineOptions Opts;
  Opts.Passes = {"partition", "close"};
  CompileResult R = compile(readExample("resource_manager.mc"), Opts);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  // Premise: this example actually has partitionable inputs.
  ASSERT_GT(R.Partition.InputsPartitioned + R.Partition.ParamsPartitioned,
            0u);
  const AnalysisStats &S = R.Analyses;
  // Partition preserves aliasing, so the close pass reuses the alias
  // analysis computed for partitioning...
  EXPECT_EQ(S.Alias.Computed, 1u);
  EXPECT_GT(S.Alias.Reused, 0u);
  // ...and the define-use graphs of every procedure partition left alone.
  EXPECT_GT(S.DefUse.Reused, 0u);
}

TEST(PassPipeline, InterfaceAfterCloseReusesTaint) {
  PipelineOptions Opts;
  Opts.Passes = {"interface"};
  CompileResult R = compile(figure2Source(), Opts);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  ASSERT_TRUE(R.Interface.has_value());
  EXPECT_FALSE(R.Interface->isClosed()); // figure2 is open.
  EXPECT_EQ(R.Analyses.EnvTaint.Computed, 1u);

  // Asking for the interface twice computes the taint fixpoint once.
  Opts.Passes = {"interface", "interface"};
  CompileResult R2 = compile(figure2Source(), Opts);
  ASSERT_TRUE(R2.ok()) << R2.Diags.str();
  EXPECT_EQ(R2.Analyses.EnvTaint.Computed, 1u);
  EXPECT_GT(R2.Analyses.EnvTaint.Reused, 0u);
}

//===----------------------------------------------------------------------===//
// Pipeline composition and validation
//===----------------------------------------------------------------------===//

TEST(PassPipeline, PartitionPipelineMatchesTwoStepComposition) {
  for (const char *Name : ExampleNames) {
    std::string Source = readExample(Name);

    // The historical two-step composition over standalone entry points.
    DiagnosticEngine Diags;
    std::unique_ptr<Module> Open = compileAndVerify(Source, Diags);
    ASSERT_TRUE(Open != nullptr) << Name << ": " << Diags.str();
    Module Simplified = partitionInputs(*Open);
    Module Closed = closeModule(Simplified);

    PipelineOptions Opts;
    Opts.Passes = {"partition", "close"};
    CompileResult R = compile(Source, Opts);
    ASSERT_TRUE(R.ok()) << Name << ": " << R.Diags.str();
    EXPECT_EQ(emitModuleSource(*R.M), emitModuleSource(Closed)) << Name;
  }
}

TEST(PassPipeline, PassTableBuildsEveryRegisteredName) {
  const std::vector<std::string> Registered = {
      "parse",      "sema",       "lower",       "verify",    "partition",
      "close",      "dedup-toss", "naive-close", "interface", "lower-bytecode"};
  std::string Known;
  for (const std::string &Name : Registered) {
    std::unique_ptr<Pass> P = createPass(Name);
    ASSERT_TRUE(P != nullptr) << Name;
    EXPECT_EQ(P->name(), Name);
    Known += (Known.empty() ? "" : ", ") + Name;
  }
  EXPECT_EQ(createPass("bogus"), nullptr);
  PipelineOptions Opts;
  Opts.Passes = {"bogus"};
  std::vector<Diagnostic> Diags = Opts.validate();
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Message, "unknown pass 'bogus' (known: " + Known + ")");
}

TEST(PassPipeline, UnknownPassIsRejected) {
  PipelineOptions Opts;
  Opts.Passes = {"bogus"};
  CompileResult R = compile(figure2Source(), Opts);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Diags.str().find("unknown pass 'bogus'"), std::string::npos)
      << R.Diags.str();
  EXPECT_TRUE(R.Passes.empty()); // Rejected before anything ran.
}

TEST(PassPipeline, PrintAfterNamingAbsentPassIsRejected) {
  PipelineOptions Opts;
  Opts.PrintAfter = "partition"; // Default pipeline has no partition pass.
  CompileResult R = compile(figure2Source(), Opts);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Diags.str().find("not in the pipeline"), std::string::npos)
      << R.Diags.str();
}

TEST(PassPipeline, PrintAfterCapturesModuleSource) {
  PipelineOptions Opts;
  Opts.PrintAfter = "close";
  CompileResult R = compile(figure2Source(), Opts);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  ASSERT_EQ(R.Printed.size(), 1u);
  EXPECT_EQ(R.Printed[0].first, "close");
  EXPECT_EQ(R.Printed[0].second, emitModuleSource(*R.M));
}

TEST(PassPipeline, VerifyEachAcceptsTheRealPipeline) {
  PipelineOptions Opts;
  Opts.Passes = {"partition", "close", "dedup-toss"};
  Opts.VerifyEach = true;
  for (const char *Name : ExampleNames) {
    CompileResult R = compile(readExample(Name), Opts);
    EXPECT_TRUE(R.ok()) << Name << ": " << R.Diags.str();
  }
}

namespace {
/// A deliberately broken pass: points an arc of the first procedure at a
/// nonexistent node, which the CFG verifier must catch.
class CorruptingPass : public Pass {
public:
  const char *name() const override { return "corrupt-cfg"; }
  bool run(CompilationContext &Ctx) override {
    for (ProcCfg &Proc : Ctx.M->Procs)
      for (CfgNode &Node : Proc.Nodes)
        if (!Node.Arcs.empty()) {
          Node.Arcs[0].Target =
              static_cast<NodeId>(Proc.Nodes.size() + 100);
          return true;
        }
    return true;
  }
};
} // namespace

TEST(PassPipeline, VerifyEachNamesTheOffendingPass) {
  PipelineOptions Opts;
  Opts.VerifyEach = true;
  Opts.Passes = {"parse", "sema", "lower", "verify"};
  CompilationContext Ctx(figure2Source(), Opts);
  PassPipeline Pipeline;
  for (const std::string &Name : Opts.Passes)
    Pipeline.add(createPass(Name));
  Pipeline.add(std::make_unique<CorruptingPass>());
  EXPECT_FALSE(Pipeline.run(Ctx));
  EXPECT_NE(Ctx.Diags.str().find(
                "module verification failed after pass 'corrupt-cfg'"),
            std::string::npos)
      << Ctx.Diags.str();
  // Without --verify-each the corruption sails through the pipeline (the
  // stats record every pass as executed).
  PipelineOptions Lax = Opts;
  Lax.VerifyEach = false;
  CompilationContext Ctx2(figure2Source(), Lax);
  PassPipeline Pipeline2;
  for (const std::string &Name : Lax.Passes)
    Pipeline2.add(createPass(Name));
  Pipeline2.add(std::make_unique<CorruptingPass>());
  EXPECT_TRUE(Pipeline2.run(Ctx2));
  EXPECT_EQ(Ctx2.Passes.size(), 5u);
}

//===----------------------------------------------------------------------===//
// dedup-toss as a standalone pass
//===----------------------------------------------------------------------===//

TEST(PassPipeline, DedupTossPassIsAFixpoint) {
  PipelineOptions Opts;
  Opts.Passes = {"close", "dedup-toss"};
  Opts.VerifyEach = true;
  for (const char *Name : ExampleNames) {
    CompileResult R = compile(readExample(Name), Opts);
    ASSERT_TRUE(R.ok()) << Name << ": " << R.Diags.str();
    // Deduping the deduped module again removes nothing.
    Module Copy = R.M->clone();
    EXPECT_EQ(dedupTossBranches(Copy), 0u) << Name;
  }
}

TEST(PassPipeline, DedupTossNeverIncreasesTossCount) {
  PipelineOptions Plain;
  Plain.Passes = {"close"};
  PipelineOptions Dedup;
  Dedup.Passes = {"close", "dedup-toss"};
  for (const char *Name : ExampleNames) {
    CompileResult A = compile(readExample(Name), Plain);
    CompileResult B = compile(readExample(Name), Dedup);
    ASSERT_TRUE(A.ok() && B.ok()) << Name;
    EXPECT_LE(countTossNodes(*B.M), countTossNodes(*A.M)) << Name;
  }
}

/// gen-corpus 16 procs x 40 stmts, seed 1: its closed module has
/// procedures with identical toss nodes.
std::string tossDuplicatesCorpus() {
  CorpusConfig Config;
  Config.Procs = 16;
  Config.StmtsPerProc = 40;
  Config.Seed = 1;
  return generateCorpusSource(Config);
}

TEST(PassPipeline, DedupTossPassMergesCorpusDuplicates) {
  // Regression: once a procedure had two identical toss nodes, every round
  // of the pass remapped the duplicate but left it in place, so the next
  // round found the same pair again and the pass never terminated.
  const std::string Src = tossDuplicatesCorpus();
  PipelineOptions Pass;
  Pass.Passes = {"close", "dedup-toss"};
  CompileResult A = compile(Src, Pass);
  ASSERT_TRUE(A.ok()) << A.Diags.str();
  EXPECT_GT(A.Closing.TossNodesDeduped, 0u) << "corpus has no duplicates";
  Module Copy = A.M->clone();
  EXPECT_EQ(dedupTossBranches(Copy), 0u);
  // Right after the close, the pass leaves the closing counters (and so
  // `closer close --dedup-toss`'s summary line) describing the merged
  // module; it used to leave them describing the close's output, one toss
  // node more.
  EXPECT_EQ(A.Closing.NodesAfter, A.M->totalNodes());
  EXPECT_EQ(A.Closing.TossNodesInserted, countTossNodes(*A.M));
}

TEST(PassPipeline, DedupTossKeepsCloseCountersAfterAnotherTransform) {
  // Once another transform has replaced the close's output, the closing
  // counters keep describing the close's module whether or not dedup-toss
  // merges anything in the later one.
  const std::string Src = tossDuplicatesCorpus();
  PipelineOptions Between;
  Between.Passes = {"close", "naive-close", "dedup-toss"};
  CompileResult A = compile(Src, Between);
  ASSERT_TRUE(A.ok()) << A.Diags.str();
  EXPECT_GT(A.Closing.TossNodesDeduped, 0u) << "nothing merged";
  PipelineOptions CloseOnly;
  CloseOnly.Passes = {"close"};
  CompileResult B = compile(Src, CloseOnly);
  ASSERT_TRUE(B.ok()) << B.Diags.str();
  EXPECT_EQ(A.Closing.NodesAfter, B.Closing.NodesAfter);
  EXPECT_EQ(A.Closing.TossNodesInserted, B.Closing.TossNodesInserted);
}

//===----------------------------------------------------------------------===//
// Idempotence: closing a closed program is the identity (modulo stats)
//===----------------------------------------------------------------------===//

void expectClosingFixpoint(const std::string &ClosedSource,
                           const std::string &Label) {
  CompileResult R = compile(ClosedSource);
  ASSERT_TRUE(R.ok()) << Label << ": " << R.Diags.str();
  EXPECT_EQ(R.Closing.NodesAfter, R.Closing.NodesBefore) << Label;
  EXPECT_EQ(R.Closing.TossNodesInserted, 0u) << Label;
  EXPECT_EQ(R.Closing.ParamsRemoved, 0u) << Label;
  EXPECT_EQ(R.Closing.EnvCallsRemoved, 0u) << Label;
}

TEST(PassPipeline, ClosingExamplesIsIdempotent) {
  for (const char *Name : ExampleNames) {
    CompileResult First = compile(readExample(Name));
    ASSERT_TRUE(First.ok()) << Name << ": " << First.Diags.str();
    expectClosingFixpoint(emitModuleSource(*First.M), Name);
  }
}

TEST(PassPipeline, ClosingRandomProgramsIsIdempotent) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    CompileResult First = compile(randomOpenProgram(Seed));
    ASSERT_TRUE(First.ok()) << "seed " << Seed << ": " << First.Diags.str();
    expectClosingFixpoint(emitModuleSource(*First.M),
                          "seed " + std::to_string(Seed));
  }
}

//===----------------------------------------------------------------------===//
// Artifact
//===----------------------------------------------------------------------===//

TEST(PassPipeline, ArtifactCarriesSchemaPassesAndCounters) {
  PipelineOptions Opts;
  Opts.Passes = {"partition", "close"};
  CompileResult R = compile(readExample("resource_manager.mc"), Opts);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  std::string Json = compileArtifactToJson(R).str(/*Pretty=*/true);
  EXPECT_NE(Json.find("\"schema\": \"closer-close-stats-v1\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"passes\""), std::string::npos);
  EXPECT_NE(Json.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(Json.find("\"analyses\""), std::string::npos);
  EXPECT_NE(Json.find("\"computed\""), std::string::npos);
  EXPECT_NE(Json.find("\"reused\""), std::string::npos);
  EXPECT_NE(Json.find("\"nodes_before\""), std::string::npos);
  EXPECT_NE(Json.find("\"inputs_partitioned\""), std::string::npos);
}

} // namespace
} // namespace closer
