//===- EnvTaint.cpp - Environment-input (taint) analysis -------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "dataflow/EnvTaint.h"

#include <cassert>
#include <deque>
#include <unordered_set>

using namespace closer;

//===----------------------------------------------------------------------===//
// TaintResult helpers
//===----------------------------------------------------------------------===//

bool TaintResult::exprTainted(const Module &Mod, const AliasAnalysis &Alias,
                              size_t ProcIdx, NodeId N, const Expr *E,
                              ExprUsesCache *Cache) const {
  if (!E)
    return false;
  // Fast paths for the trivial shapes (exactly the leaf cases of the
  // expression-uses collector): almost every argument in real programs is
  // a literal or a plain variable, and skipping the set materialization
  // for them is what keeps the export loop allocation-free at scale.
  switch (E->Kind) {
  case ExprKind::IntLit:
    return false;
  case ExprKind::Unknown:
    return true;
  case ExprKind::VarRef:
    return Procs[ProcIdx].vi(N).count(E->Name) != 0;
  default:
    break;
  }
  const ExprUses *U;
  ExprUses Scratch;
  if (Cache) {
    auto [It, Fresh] = Cache->try_emplace(E);
    if (Fresh)
      It->second = collectExprUses(Mod, Mod.Procs[ProcIdx], Alias, E);
    U = &It->second;
  } else {
    Scratch = collectExprUses(Mod, Mod.Procs[ProcIdx], Alias, E);
    U = &Scratch;
  }
  if (U->UsesUnknown)
    return true;
  const TaintedVars Vi = Procs[ProcIdx].vi(N);
  for (const std::string &V : U->Plain)
    if (Vi.count(V))
      return true;
  for (const std::string &Q : U->Cross)
    if (EverTainted.count(Q))
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// EnvAnalysis
//===----------------------------------------------------------------------===//

EnvAnalysis::EnvAnalysis(const Module &Mod, TaintOptions Options) : Mod(Mod) {
  OwnedAlias = std::make_unique<AliasAnalysis>(Mod);
  AliasPtr = OwnedAlias.get();
  OwnedDataflows.reserve(Mod.Procs.size());
  DataflowPtrs.reserve(Mod.Procs.size());
  for (const ProcCfg &Proc : Mod.Procs) {
    OwnedDataflows.push_back(
        std::make_unique<ProcDataflow>(Mod, Proc, *AliasPtr));
    DataflowPtrs.push_back(OwnedDataflows.back().get());
  }
  runFixpoint(Options);
}

EnvAnalysis::EnvAnalysis(const Module &Mod, const AliasAnalysis &Alias,
                         std::vector<const ProcDataflow *> Dataflows,
                         TaintOptions Options)
    : Mod(Mod), AliasPtr(&Alias), DataflowPtrs(std::move(Dataflows)) {
  assert(DataflowPtrs.size() == Mod.Procs.size() &&
         "one dataflow per procedure");
  runFixpoint(Options);
}

namespace {

/// Size snapshot of all monotone sets, for fixpoint detection.
struct Footprint {
  size_t Globals, Channels, Shared, CrossWritten, EverTainted, Params;
  unsigned Returns;

  bool operator==(const Footprint &O) const = default;
};

Footprint footprint(const TaintResult &R) {
  size_t Params = 0;
  unsigned Returns = 0;
  for (const ProcTaint &P : R.Procs) {
    for (bool B : P.TaintedParams)
      Params += B;
    Returns += P.TaintedReturn;
  }
  return {R.TaintedGlobals.size(), R.TaintedChannels.size(),
          R.TaintedShared.size(), R.CrossWritten.size(),
          R.EverTainted.size(),   Params,
          Returns};
}

} // namespace

void EnvAnalysis::runFixpoint(TaintOptions Options) {
  size_t NumProcs = Mod.Procs.size();

  // Name lookups run once per node per fixpoint round; the Module's own
  // findGlobal/procIndex are linear scans, which turns the fixpoint
  // quadratic on many-procedure corpora. Build hash indices once — the
  // module is not mutated while the analysis runs.
  ProcIndex Procs(Mod);
  std::unordered_set<std::string> GlobalNames;
  for (const GlobalDecl &G : Mod.Globals)
    GlobalNames.insert(G.Name);
  auto isGlobal = [&](const std::string &Name) {
    return GlobalNames.count(Name) != 0;
  };
  Result.Procs.resize(NumProcs);
  for (size_t P = 0; P != NumProcs; ++P) {
    const ProcCfg &Proc = Mod.Procs[P];
    Result.Procs[P].TaintedParams.assign(Proc.Params.size(), false);
    Result.Procs[P].InNI.assign(Proc.Nodes.size(), false);
    Result.Procs[P].EnvSource.assign(Proc.Nodes.size(), false);
  }

  // Seed: `env` process arguments bind environment values to top-level
  // parameters.
  for (const ProcessDecl &Inst : Mod.Processes) {
    int ProcIdx = Procs.lookup(Inst.ProcName);
    if (ProcIdx < 0)
      continue;
    for (size_t I = 0,
                E = std::min(Inst.Args.size(),
                             Result.Procs[ProcIdx].TaintedParams.size());
         I != E; ++I)
      if (Inst.Args[I].IsEnv)
        Result.Procs[ProcIdx].TaintedParams[I] = true;
  }

  // The member expression-uses memo: rounds after the first (and the
  // closing transform afterwards) hit the cache instead of re-walking
  // every argument expression.
  ExprCache.clear();

  Footprint Prev = footprint(Result);
  for (;;) {
    for (size_t P = 0; P != NumProcs; ++P) {
      const ProcCfg &Proc = Mod.Procs[P];
      const ProcDataflow &DF = *DataflowPtrs[P];
      ProcTaint &PT = Result.Procs[P];
      size_t N = Proc.Nodes.size();
      // Reused qualified-name buffer: the seed and V_I loops look up
      // "proc::var" for every use of every node on every fixpoint round,
      // and building that string fresh each time allocates millions of
      // temporaries on large modules.
      std::string Qual = Proc.Name + "::";
      const size_t QualPrefix = Qual.size();
      auto qualify = [&](const std::string &V) -> const std::string & {
        Qual.resize(QualPrefix);
        Qual += V;
        return Qual;
      };

      // --- Identify env-definition sources and seed uses -----------------
      std::fill(PT.EnvSource.begin(), PT.EnvSource.end(), false);
      std::vector<bool> Seed(N, false);
      for (size_t I = 0; I != N; ++I) {
        const CfgNode &Node = Proc.Nodes[I];
        if (Node.Kind == CfgNodeKind::Call) {
          switch (Node.Builtin) {
          case BuiltinKind::EnvInput:
            PT.EnvSource[I] = true;
            break;
          case BuiltinKind::Recv:
            if (!Node.Args.empty() &&
                Result.TaintedChannels.count(Node.Args[0]->Name))
              PT.EnvSource[I] = true;
            break;
          case BuiltinKind::SharedRead:
            if (!Node.Args.empty() &&
                Result.TaintedShared.count(Node.Args[0]->Name))
              PT.EnvSource[I] = true;
            break;
          case BuiltinKind::None: {
            int CalleeIdx = Procs.lookup(Node.Callee);
            if (Node.Target && CalleeIdx >= 0 &&
                Result.Procs[CalleeIdx].TaintedReturn)
              PT.EnvSource[I] = true;
            break;
          }
          default:
            break;
          }
        }

        // Does this node read an environment-defined value?
        if (DF.usesUnknown(I)) {
          Seed[I] = true;
          continue;
        }
        for (const std::string &V : DF.uses(I)) {
          if (isGlobal(V)) {
            if (Result.TaintedGlobals.count(V)) {
              Seed[I] = true;
              break;
            }
            continue;
          }
          qualify(V);
          if (Result.CrossWritten.count(Qual)) {
            Seed[I] = true;
            break;
          }
          int ParamIdx = Proc.paramIndex(V);
          if (ParamIdx >= 0 && PT.TaintedParams[ParamIdx] &&
              DF.paramEntryReaches(static_cast<NodeId>(I), V)) {
            Seed[I] = true;
            break;
          }
          if (Options.CoarseMode && Result.EverTainted.count(Qual)) {
            Seed[I] = true;
            break;
          }
        }
        if (!Seed[I]) {
          for (const std::string &Q : DF.crossUses(I))
            if (Result.EverTainted.count(Q)) {
              Seed[I] = true;
              break;
            }
        }
      }

      // --- Propagate over define-use arcs: N_I --------------------------
      std::fill(PT.InNI.begin(), PT.InNI.end(), false);
      std::deque<NodeId> Work;
      for (size_t I = 0; I != N; ++I) {
        if (Seed[I]) {
          PT.InNI[I] = true;
          Work.push_back(static_cast<NodeId>(I));
        }
      }
      // Definitions performed by env sources taint their users.
      for (size_t I = 0; I != N; ++I) {
        if (!PT.EnvSource[I])
          continue;
        for (const auto &[To, Var] : DF.duSuccessors(static_cast<NodeId>(I)))
          if (!PT.InNI[To]) {
            PT.InNI[To] = true;
            Work.push_back(To);
          }
      }
      while (!Work.empty()) {
        NodeId Id = Work.front();
        Work.pop_front();
        for (const auto &[To, Var] : DF.duSuccessors(Id)) {
          if (!PT.InNI[To]) {
            PT.InNI[To] = true;
            Work.push_back(To);
          }
        }
      }

      // --- V_I(n) --------------------------------------------------------
      PT.VI.Dat.clear();
      PT.VI.Off.clear();
      PT.VI.Off.reserve(N + 1);
      for (size_t I = 0; I != N; ++I) {
        PT.VI.Off.push_back(static_cast<uint32_t>(PT.VI.Dat.size()));
        if (!PT.InNI[I])
          continue;
        for (const std::string &V : DF.uses(I)) {
          bool Tainted = false;
          if (isGlobal(V)) {
            Tainted = Result.TaintedGlobals.count(V) != 0;
          } else {
            qualify(V);
            int ParamIdx = Proc.paramIndex(V);
            Tainted =
                Result.CrossWritten.count(Qual) ||
                (ParamIdx >= 0 && PT.TaintedParams[ParamIdx] &&
                 DF.paramEntryReaches(static_cast<NodeId>(I), V)) ||
                (Options.CoarseMode && Result.EverTainted.count(Qual));
          }
          if (!Tainted) {
            for (const auto &[From, Var] :
                 DF.duPredecessors(static_cast<NodeId>(I))) {
              if (*Var == V && (PT.InNI[From] || PT.EnvSource[From])) {
                Tainted = true;
                break;
              }
            }
          }
          if (Tainted)
            PT.VI.Dat.push_back(&V);
        }
      }
      PT.VI.Off.push_back(static_cast<uint32_t>(PT.VI.Dat.size()));
      if (PT.VI.Dat.empty())
        std::vector<uint32_t>().swap(PT.VI.Off);

      // --- Export summaries ----------------------------------------------
      for (size_t I = 0; I != N; ++I) {
        const CfgNode &Node = Proc.Nodes[I];
        bool NodeTainted = PT.InNI[I] || PT.EnvSource[I];

        // Tainted definitions flow into the cross-procedure sets.
        if (NodeTainted || (Options.CoarseMode && PT.InNI[I])) {
          for (const VarDef &D : DF.defs(static_cast<NodeId>(I))) {
            if (isGlobal(D.Name))
              Result.TaintedGlobals.insert(D.Name);
            else
              Result.EverTainted.insert(qualify(D.Name));
            if (D.Name == retValName())
              PT.TaintedReturn = true;
          }
        }
        if (NodeTainted) {
          for (const std::string &Q : DF.crossDefs(static_cast<NodeId>(I))) {
            Result.CrossWritten.insert(Q);
            Result.EverTainted.insert(Q);
          }
        }

        if (Node.Kind != CfgNodeKind::Call)
          continue;
        switch (Node.Builtin) {
        case BuiltinKind::None: {
          int CalleeIdx = Procs.lookup(Node.Callee);
          if (CalleeIdx < 0)
            break;
          ProcTaint &Callee = Result.Procs[CalleeIdx];
          for (size_t A = 0,
                      AE = std::min(Node.Args.size(),
                                    Callee.TaintedParams.size());
               A != AE; ++A) {
            if (Result.exprTainted(Mod, *AliasPtr, P, static_cast<NodeId>(I),
                                   Node.Args[A].get(), &ExprCache))
              Callee.TaintedParams[A] = true;
          }
          break;
        }
        case BuiltinKind::Send:
          if (Node.Args.size() == 2 &&
              Result.exprTainted(Mod, *AliasPtr, P, static_cast<NodeId>(I),
                                 Node.Args[1].get(), &ExprCache))
            Result.TaintedChannels.insert(Node.Args[0]->Name);
          break;
        case BuiltinKind::SharedWrite:
          if (Node.Args.size() == 2 &&
              Result.exprTainted(Mod, *AliasPtr, P, static_cast<NodeId>(I),
                                 Node.Args[1].get(), &ExprCache))
            Result.TaintedShared.insert(Node.Args[0]->Name);
          break;
        default:
          break;
        }
      }

      // Exported parameter taint also marks values as ever-tainted for
      // cross-procedure pointer reads.
      for (size_t A = 0, AE = Proc.Params.size(); A != AE; ++A)
        if (PT.TaintedParams[A])
          Result.EverTainted.insert(Proc.Name + "::" + Proc.Params[A]);
    }

    Footprint Now = footprint(Result);
    if (Now == Prev)
      break;
    Prev = Now;
  }
}

void EnvAnalysis::releaseProc(size_t ProcIdx) {
  ProcTaint &PT = Result.Procs[ProcIdx];
  ProcTaint Kept;
  Kept.TaintedParams = std::move(PT.TaintedParams);
  Kept.TaintedReturn = PT.TaintedReturn;
  PT = std::move(Kept);
  DataflowPtrs[ProcIdx] = nullptr;
  if (!OwnedDataflows.empty())
    OwnedDataflows[ProcIdx].reset();
}

bool EnvAnalysis::moduleIsClosed() const {
  for (const ProcessDecl &Inst : Mod.Processes)
    for (const ProcessArg &Arg : Inst.Args)
      if (Arg.IsEnv)
        return false;
  for (size_t P = 0, E = Mod.Procs.size(); P != E; ++P) {
    const ProcCfg &Proc = Mod.Procs[P];
    for (size_t I = 0, N = Proc.Nodes.size(); I != N; ++I) {
      const CfgNode &Node = Proc.Nodes[I];
      if (Node.Kind == CfgNodeKind::Call &&
          (Node.Builtin == BuiltinKind::EnvInput ||
           Node.Builtin == BuiltinKind::EnvOutput))
        return false;
      if (!Result.Procs[P].InNI[I])
        continue;
      // A visible-operation builtin may legitimately carry the residual
      // `unknown` placeholder in a closed program (the payload was
      // eliminated but the operation is preserved); anything else in N_I
      // means environment data still influences the program.
      bool ResidualOk = Node.Kind == CfgNodeKind::Call &&
                        Node.Builtin != BuiltinKind::None &&
                        Node.Builtin != BuiltinKind::VsToss &&
                        builtinInfo(Node.Builtin).IsVisible;
      if (!ResidualOk)
        return false;
    }
  }
  return true;
}
