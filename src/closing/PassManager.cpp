//===- PassManager.cpp - Pass pipeline for the closing side -----------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "closing/PassManager.h"

#include "cfg/CfgBuilder.h"
#include "cfg/CfgPrinter.h"
#include "cfg/CfgVerifier.h"
#include "lang/Ast.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "vm/Bytecode.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

using namespace closer;

//===----------------------------------------------------------------------===//
// PipelineOptions
//===----------------------------------------------------------------------===//

std::vector<std::string> PipelineOptions::expandedPasses() const {
  if (!Passes.empty() && Passes.front() == "parse")
    return Passes;
  std::vector<std::string> Full = {"parse", "sema", "lower", "verify"};
  if (Passes.empty())
    Full.push_back("close");
  else
    Full.insert(Full.end(), Passes.begin(), Passes.end());
  return Full;
}

std::vector<Diagnostic> PipelineOptions::validate() const {
  std::vector<Diagnostic> Out;
  auto Error = [&Out](std::string Msg) {
    Out.push_back({DiagKind::Error, SourceLoc(), std::move(Msg)});
  };

  const std::vector<std::string> Full = expandedPasses();
  // Hash the registry once; the former per-name std::find over the full
  // list was linear in the registry per lookup.
  static const std::unordered_set<std::string> KnownSet(
      knownPassNames().begin(), knownPassNames().end());
  for (const std::string &Name : Full)
    if (!KnownSet.count(Name))
      Error("unknown pass '" + Name + "' (known: parse, sema, lower, verify, "
            "partition, close, dedup-toss, naive-close, interface, "
            "lower-bytecode)");
  if (!Out.empty())
    return Out;

  // Transform passes mutate the module, so scheduling one twice is almost
  // always a mistyped --passes list — and running it anyway would silently
  // re-transform and double-count stats. Read-only / snapshot passes
  // (verify, interface, lower-bytecode) may legitimately repeat.
  static const std::unordered_set<std::string> TransformPasses = {
      "partition", "close", "dedup-toss", "naive-close"};
  std::unordered_set<std::string> SeenTransforms;
  for (const std::string &Name : Full)
    if (TransformPasses.count(Name) && !SeenTransforms.insert(Name).second)
      Error("duplicate pass '" + Name +
            "' in --passes (transform passes run at most once per pipeline)");
  if (!Out.empty())
    return Out;

  // The frontend passes build state later passes depend on; they only make
  // sense once each, in their canonical prefix positions. ("verify" is a
  // module pass and may appear anywhere after "lower".)
  static const char *Frontend[] = {"parse", "sema", "lower"};
  for (size_t I = 0; I != 3; ++I) {
    size_t Count = std::count(Full.begin(), Full.end(), Frontend[I]);
    if (Count != 1 || Full[I] != Frontend[I]) {
      Error("pipeline must begin with 'parse, sema, lower' exactly once "
            "each; got '" + Full[std::min(I, Full.size() - 1)] +
            "' at position " + std::to_string(I));
      break;
    }
  }

  if (!PrintAfter.empty() &&
      std::find(Full.begin(), Full.end(), PrintAfter) == Full.end())
    Error("--print-after names pass '" + PrintAfter +
          "' which is not in the pipeline");

  if (std::find(Full.begin(), Full.end(), "naive-close") != Full.end() &&
      Naive.DomainBound < 0)
    Error("naive-close domain bound must be non-negative");

  return Out;
}

//===----------------------------------------------------------------------===//
// CompilationContext
//===----------------------------------------------------------------------===//

CompilationContext::CompilationContext(std::string SourceText,
                                       PipelineOptions Options)
    : Source(std::move(SourceText)), Opts(std::move(Options)) {}

CompilationContext::~CompilationContext() = default;

void CompilationContext::replaceModule(std::unique_ptr<Module> NewM) {
  // Rebind while the old module is still alive: the manager's cached
  // analyses hold pointers into it.
  if (AM)
    AM->rebind(*NewM);
  if (RetainedOpen)
    M = std::move(NewM); // Old intermediate module dies here.
  else {
    RetainedOpen = std::move(M);
    M = std::move(NewM);
  }
}

//===----------------------------------------------------------------------===//
// Pass implementations
//===----------------------------------------------------------------------===//

Pass::~Pass() = default;

namespace {

/// Shared precondition check for passes needing a lowered module.
bool requireModule(CompilationContext &Ctx, const char *PassName) {
  if (Ctx.M)
    return true;
  Ctx.Diags.error(SourceLoc(), std::string("pass '") + PassName +
                                   "' requires a lowered module (run "
                                   "parse, sema, lower first)");
  return false;
}

class ParsePass : public Pass {
public:
  const char *name() const override { return "parse"; }
  bool run(CompilationContext &Ctx) override {
    Ctx.AST = parseMiniC(Ctx.Source, Ctx.Diags);
    return Ctx.AST != nullptr && !Ctx.Diags.hasErrors();
  }
};

class SemaPass : public Pass {
public:
  const char *name() const override { return "sema"; }
  bool run(CompilationContext &Ctx) override {
    if (!Ctx.AST) {
      Ctx.Diags.error(SourceLoc(), "pass 'sema' requires a parsed program");
      return false;
    }
    return checkProgram(*Ctx.AST, Ctx.Diags);
  }
};

class LowerPass : public Pass {
public:
  const char *name() const override { return "lower"; }
  bool run(CompilationContext &Ctx) override {
    if (!Ctx.AST) {
      Ctx.Diags.error(SourceLoc(), "pass 'lower' requires a checked program");
      return false;
    }
    Ctx.M = buildModule(*Ctx.AST, Ctx.Diags);
    // The module owns clones of every expression and no later pass reads
    // the AST, so release it now instead of carrying it (about as large as
    // the module) through the analyses and the close.
    Ctx.AST.reset();
    if (!Ctx.M)
      return false;
    Ctx.AM = std::make_unique<AnalysisManager>(*Ctx.M);
    if (!Ctx.Opts.AnalysisCacheDir.empty()) {
      // Prefill the fresh manager from the on-disk cache; later passes see
      // hits as Reused, exactly as with the in-process cache.
      Ctx.CacheStats.Enabled = true;
      AnalysisCache(Ctx.Opts.AnalysisCacheDir)
          .restore(*Ctx.AM, Ctx.Opts.Closing.Taint, Ctx.CacheStats);
    }
    return true;
  }
};

class VerifyPass : public Pass {
public:
  const char *name() const override { return "verify"; }
  bool run(CompilationContext &Ctx) override {
    if (!requireModule(Ctx, name()))
      return false;
    return verifyModule(*Ctx.M, Ctx.Diags);
  }
};

class PartitionPass : public Pass {
public:
  const char *name() const override { return "partition"; }
  bool run(CompilationContext &Ctx) override {
    if (!requireModule(Ctx, name()))
      return false;
    partitionInputsInPlace(*Ctx.M, *Ctx.AM, Ctx.Opts.Partition,
                           &Ctx.Partition);
    return true;
  }
};

class ClosePass : public Pass {
public:
  const char *name() const override { return "close"; }
  bool run(CompilationContext &Ctx) override {
    if (!requireModule(Ctx, name()))
      return false;
    const EnvAnalysis &Analysis = Ctx.AM->getEnvTaint(Ctx.Opts.Closing.Taint);
    // Persist now, while every analysis is still materialized — the
    // closing transform replaces the module, which rebinds the manager and
    // drops them all.
    if (!Ctx.Opts.AnalysisCacheDir.empty())
      AnalysisCache(Ctx.Opts.AnalysisCacheDir)
          .save(*Ctx.AM, Ctx.Opts.Closing.Taint, Ctx.CacheStats);
    auto Closed = std::make_unique<Module>(
        closeModule(*Ctx.M, Analysis, Ctx.Opts.Closing, &Ctx.Closing));
    if (!verifyModule(*Closed, Ctx.Diags)) {
      Ctx.Diags.error(SourceLoc(),
                      "internal error: closed module failed verification");
      return false;
    }
    Ctx.replaceModule(std::move(Closed));
    return true;
  }
};

class DedupTossPass : public Pass {
public:
  const char *name() const override { return "dedup-toss"; }
  bool run(CompilationContext &Ctx) override {
    if (!requireModule(Ctx, name()))
      return false;
    std::vector<size_t> Changed;
    Ctx.Closing.TossNodesDeduped += dedupTossBranches(*Ctx.M, &Changed);
    // Merging toss nodes rewires arcs but touches no variable, so the
    // points-to facts of the rewritten procedures are intact.
    for (size_t ProcIdx : Changed)
      Ctx.AM->invalidateProc(ProcIdx, /*AliasPreserved=*/true);
    return true;
  }
};

class NaiveClosePass : public Pass {
public:
  const char *name() const override { return "naive-close"; }
  bool run(CompilationContext &Ctx) override {
    if (!requireModule(Ctx, name()))
      return false;
    auto Closed = std::make_unique<Module>(
        naiveCloseModule(*Ctx.M, Ctx.Opts.Naive, &Ctx.Naive));
    if (!verifyModule(*Closed, Ctx.Diags)) {
      Ctx.Diags.error(
          SourceLoc(),
          "internal error: naively closed module failed verification");
      return false;
    }
    Ctx.replaceModule(std::move(Closed));
    return true;
  }
};

class LowerBytecodePass : public Pass {
public:
  const char *name() const override { return "lower-bytecode"; }
  bool run(CompilationContext &Ctx) override {
    if (!requireModule(Ctx, name()))
      return false;
    // Compiles the module as it stands at this pipeline position; callers
    // wanting the closed program executed should schedule this after
    // close/dedup-toss. The explorer also self-compiles when handed no
    // bytecode, so this pass is an inspection/caching aid, never a
    // correctness requirement.
    Ctx.Bytecode = vm::compileModule(*Ctx.M);
    return true;
  }
};

class InterfacePass : public Pass {
public:
  const char *name() const override { return "interface"; }
  bool run(CompilationContext &Ctx) override {
    if (!requireModule(Ctx, name()))
      return false;
    Ctx.Interface =
        buildInterfaceReport(*Ctx.M, Ctx.AM->getEnvTaint(Ctx.Opts.Closing.Taint));
    return true;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// PassPipeline
//===----------------------------------------------------------------------===//

void PassPipeline::add(std::unique_ptr<Pass> P) {
  Passes.push_back(std::move(P));
}

bool PassPipeline::run(CompilationContext &Ctx) {
  for (const std::unique_ptr<Pass> &P : Passes) {
    auto Start = std::chrono::steady_clock::now();
    bool Ok = P->run(Ctx);
    std::chrono::duration<double> Elapsed =
        std::chrono::steady_clock::now() - Start;
    Stats.push_back({P->name(), Elapsed.count()});
    if (!Ok) {
      if (!Ctx.Diags.hasErrors())
        Ctx.Diags.error(SourceLoc(),
                        std::string("pass '") + P->name() + "' failed");
      return false;
    }
    if (Ctx.Opts.VerifyEach && Ctx.M && !verifyModule(*Ctx.M, Ctx.Diags)) {
      Ctx.Diags.error(SourceLoc(),
                      std::string("module verification failed after pass '") +
                          P->name() + "'");
      return false;
    }
    if (Ctx.M && !Ctx.Opts.PrintAfter.empty() &&
        Ctx.Opts.PrintAfter == P->name())
      Printed.emplace_back(P->name(), emitModuleSource(*Ctx.M));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

const std::vector<std::string> &closer::knownPassNames() {
  static const std::vector<std::string> Names = {
      "parse",      "sema",       "lower",       "verify",    "partition",
      "close",      "dedup-toss", "naive-close", "interface", "lower-bytecode"};
  return Names;
}

std::unique_ptr<Pass> closer::createPass(const std::string &Name) {
  if (Name == "parse")
    return std::make_unique<ParsePass>();
  if (Name == "sema")
    return std::make_unique<SemaPass>();
  if (Name == "lower")
    return std::make_unique<LowerPass>();
  if (Name == "verify")
    return std::make_unique<VerifyPass>();
  if (Name == "partition")
    return std::make_unique<PartitionPass>();
  if (Name == "close")
    return std::make_unique<ClosePass>();
  if (Name == "dedup-toss")
    return std::make_unique<DedupTossPass>();
  if (Name == "naive-close")
    return std::make_unique<NaiveClosePass>();
  if (Name == "interface")
    return std::make_unique<InterfacePass>();
  if (Name == "lower-bytecode")
    return std::make_unique<LowerBytecodePass>();
  return nullptr;
}
