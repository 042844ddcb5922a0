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
    // buildModule frees each procedure's body once its nodes exist; no
    // later pass reads the declarations left.
    Ctx.M = buildModule(*Ctx.AST, Ctx.Diags);
    Ctx.ClosingDescribesM = false;
    Ctx.AST.reset();
    if (!Ctx.M)
      return false;
    Ctx.AM = std::make_unique<AnalysisManager>(*Ctx.M);
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
    partitionInputsInPlace(*Ctx.M, *Ctx.AM, Ctx.EffectiveOptions.Partition,
                           &Ctx.Partition);
    Ctx.ClosingDescribesM = false;
    return true;
  }
};

class ClosePass : public Pass {
public:
  const char *name() const override { return "close"; }
  bool run(CompilationContext &Ctx) override {
    if (!requireModule(Ctx, name()))
      return false;
    // Figure 1 closes each procedure on its own once Step 2's facts exist,
    // so free each open procedure and its analyses as soon as its closed
    // form exists: the pass holds at most one procedure twice.
    ModuleCloser Closer(
        *Ctx.M, Ctx.AM->getEnvTaint(Ctx.EffectiveOptions.Closing.Taint),
        &Ctx.Closing);
    for (size_t P = 0, E = Ctx.M->Procs.size(); P != E; ++P) {
      Closer.closeProc(P);
      Ctx.AM->releaseProc(P);
      std::vector<CfgNode>().swap(Ctx.M->Procs[P].Nodes);
    }
    auto Closed = std::make_unique<Module>(Closer.finish());
    if (!verifyModule(*Closed, Ctx.Diags)) {
      Ctx.Diags.error(SourceLoc(),
                      "internal error: closed module failed verification");
      return false;
    }
    Ctx.replaceModule(std::move(Closed));
    Ctx.ClosingDescribesM = true;
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
    size_t Removed = dedupTossBranches(*Ctx.M, &Changed);
    Ctx.Closing.TossNodesDeduped += Removed;
    // On the close's own output, keep the closing counters describing the
    // merged module, so `closer close --dedup-toss` summarizes the module
    // it prints.
    if (Ctx.ClosingDescribesM) {
      Ctx.Closing.NodesAfter = Ctx.M->totalNodes();
      Ctx.Closing.TossNodesInserted -=
          std::min(Removed, Ctx.Closing.TossNodesInserted);
    }
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
        naiveCloseModule(*Ctx.M, Ctx.EffectiveOptions.Naive, &Ctx.Naive));
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
    Ctx.Interface = buildInterfaceReport(
        *Ctx.M, Ctx.AM->getEnvTaint(Ctx.EffectiveOptions.Closing.Taint));
    return true;
  }
};

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

/// How validate() treats a pass: the frontend passes run once each, first,
/// in table order; a transform runs at most once; the others (read-only
/// or snapshot passes) may repeat.
enum class PassKind { Frontend, Transform, ReadOnly };

struct PassInfo {
  const char *Name;
  PassKind Kind;
  std::unique_ptr<Pass> (*Create)();
};

template <typename P> std::unique_ptr<Pass> makePass() {
  return std::make_unique<P>();
}

/// Every pass createPass() accepts, in canonical pipeline order.
const PassInfo PassTable[] = {
    {"parse", PassKind::Frontend, makePass<ParsePass>},
    {"sema", PassKind::Frontend, makePass<SemaPass>},
    {"lower", PassKind::Frontend, makePass<LowerPass>},
    {"verify", PassKind::ReadOnly, makePass<VerifyPass>},
    {"partition", PassKind::Transform, makePass<PartitionPass>},
    {"close", PassKind::Transform, makePass<ClosePass>},
    {"dedup-toss", PassKind::Transform, makePass<DedupTossPass>},
    {"naive-close", PassKind::Transform, makePass<NaiveClosePass>},
    {"interface", PassKind::ReadOnly, makePass<InterfacePass>},
    {"lower-bytecode", PassKind::ReadOnly, makePass<LowerBytecodePass>},
};

const PassInfo *findPass(const std::string &Name) {
  for (const PassInfo &P : PassTable)
    if (Name == P.Name)
      return &P;
  return nullptr;
}

/// The registered names (only the frontend's when \p FrontendOnly), comma
/// separated, for diagnostics.
std::string passNames(bool FrontendOnly) {
  std::string Out;
  for (const PassInfo &P : PassTable) {
    if (FrontendOnly && P.Kind != PassKind::Frontend)
      continue;
    if (!Out.empty())
      Out += ", ";
    Out += P.Name;
  }
  return Out;
}

} // namespace

std::unique_ptr<Pass> closer::createPass(const std::string &Name) {
  const PassInfo *P = findPass(Name);
  return P ? P->Create() : nullptr;
}

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
  for (const std::string &Name : Full)
    if (!findPass(Name))
      Error("unknown pass '" + Name + "' (known: " +
            passNames(/*FrontendOnly=*/false) + ")");
  if (!Out.empty())
    return Out;

  // Transform passes mutate the module, so scheduling one twice is almost
  // always a mistyped --passes list — and running it anyway would silently
  // re-transform and double-count stats. Read-only / snapshot passes
  // (verify, interface, lower-bytecode) may legitimately repeat.
  std::unordered_set<std::string> SeenTransforms;
  for (const std::string &Name : Full)
    if (findPass(Name)->Kind == PassKind::Transform &&
        !SeenTransforms.insert(Name).second)
      Error("duplicate pass '" + Name +
            "' in --passes (transform passes run at most once per pipeline)");
  if (!Out.empty())
    return Out;

  // The frontend passes build state later passes depend on; they only make
  // sense once each, in their canonical prefix positions. ("verify" is a
  // module pass and may appear anywhere after "lower".)
  size_t Pos = 0;
  for (const PassInfo &P : PassTable) {
    if (P.Kind != PassKind::Frontend)
      continue;
    if (std::count(Full.begin(), Full.end(), P.Name) != 1 ||
        Full[Pos] != P.Name) {
      Error("pipeline must begin with '" + passNames(/*FrontendOnly=*/true) +
            "' exactly once each; got '" +
            Full[std::min(Pos, Full.size() - 1)] + "' at position " +
            std::to_string(Pos));
      break;
    }
    ++Pos;
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

CompilationContext::CompilationContext(std::string_view SourceText,
                                       PipelineOptions Options)
    : Source(SourceText) {
  EffectiveOptions = std::move(Options);
}

CompilationContext::~CompilationContext() = default;

void CompilationContext::replaceModule(std::unique_ptr<Module> NewM) {
  // Rebind while the old module is still alive: the manager's cached
  // analyses hold pointers into it.
  if (AM)
    AM->rebind(*NewM);
  ClosingDescribesM = false;
  M = std::move(NewM); // The old module dies here.
}

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
    Ctx.Passes.push_back({P->name(), Elapsed.count()});
    if (!Ok) {
      if (!Ctx.Diags.hasErrors())
        Ctx.Diags.error(SourceLoc(),
                        std::string("pass '") + P->name() + "' failed");
      return false;
    }
    const PipelineOptions &O = Ctx.EffectiveOptions;
    if (O.VerifyEach && Ctx.M && !verifyModule(*Ctx.M, Ctx.Diags)) {
      Ctx.Diags.error(SourceLoc(),
                      std::string("module verification failed after pass '") +
                          P->name() + "'");
      return false;
    }
    if (Ctx.M && O.PrintAfter == P->name())
      Ctx.Printed.emplace_back(P->name(), emitModuleSource(*Ctx.M));
  }
  return true;
}
