//===- ClosingTransform.cpp - The paper's closing algorithm ----------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "closing/ClosingTransform.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <tuple>

using namespace closer;

bool closer::isMarkedNode(const Module &Mod, const EnvAnalysis &Analysis,
                          size_t ProcIdx, NodeId N) {
  const CfgNode &Node = Mod.Procs[ProcIdx].Nodes[N];
  const ProcTaint &PT = Analysis.taint().Procs[ProcIdx];
  switch (Node.Kind) {
  case CfgNodeKind::Start:
  case CfgNodeKind::Return:
  case CfgNodeKind::TossBranch:
    return true;
  case CfgNodeKind::Assign:
  case CfgNodeKind::Branch:
  case CfgNodeKind::Switch:
    // Step 3 point 4: assignment and conditional statements survive only
    // when they do not use environment-dependent values.
    return !PT.InNI[N];
  case CfgNodeKind::Call:
    switch (Node.Builtin) {
    case BuiltinKind::EnvInput:
    case BuiltinKind::EnvOutput:
      // The open interface itself: always eliminated (§3: "eliminate the
      // interface altogether").
      return false;
    case BuiltinKind::VsToss:
      // VS_toss is an invisible operation; a toss whose bound depends on
      // the environment is eliminated like any other tainted assignment
      // (its result variable is tracked as environment-defined).
      return !PT.InNI[N];
    default:
      // All procedure calls — including every visible operation — are
      // preserved (Step 3 point 3).
      return true;
    }
  }
  return true;
}

namespace {

/// succ(a): the set of marked nodes reachable from arc \p Arc through
/// unmarked nodes exclusively, in ascending node-id order (a deterministic
/// order keeps transformed programs reproducible).
std::vector<NodeId> succSet(const ProcCfg &Proc,
                            const std::vector<bool> &Marked,
                            const CfgArc &Arc) {
  std::set<NodeId> Result;
  std::set<NodeId> VisitedUnmarked;
  std::vector<NodeId> Work = {Arc.Target};
  while (!Work.empty()) {
    NodeId Id = Work.back();
    Work.pop_back();
    if (Marked[Id]) {
      Result.insert(Id);
      continue;
    }
    if (!VisitedUnmarked.insert(Id).second)
      continue; // Cycle through unmarked nodes: divergence not preserved.
    for (const CfgArc &Next : Proc.Nodes[Id].Arcs)
      Work.push_back(Next.Target);
  }
  return {Result.begin(), Result.end()};
}

class ProcCloser {
public:
  ProcCloser(const Module &Mod, const EnvAnalysis &Analysis, size_t ProcIdx,
             ClosingStats &Stats, const ProcIndex &Procs)
      : Mod(Mod), Analysis(Analysis), ProcIdx(ProcIdx), Stats(Stats),
        Procs(Procs), Proc(Mod.Procs[ProcIdx]),
        PT(Analysis.taint().Procs[ProcIdx]) {}

  ProcCfg run() {
    ProcCfg Out;
    Out.Name = Proc.Name;
    buildSignature(Out);
    markNodes();
    createMarkedNodes(Out);
    wireArcs(Out);
    pruneUnreachableNodes(Out);
    return Out;
  }

private:
  /// Step 5 point 1: parameters defined by E_S are removed from the
  /// signature; they remain as locals so residual untainted writes keep
  /// their storage.
  void buildSignature(ProcCfg &Out) {
    for (size_t I = 0, E = Proc.Params.size(); I != E; ++I) {
      if (PT.TaintedParams[I]) {
        ++Stats.ParamsRemoved;
        Out.Locals.push_back({Proc.Params[I], -1});
      } else {
        Out.Params.push_back(Proc.Params[I]);
      }
    }
    Out.Locals.insert(Out.Locals.end(), Proc.Locals.begin(),
                      Proc.Locals.end());
  }

  void markNodes() {
    Marked.assign(Proc.Nodes.size(), false);
    for (size_t I = 0, E = Proc.Nodes.size(); I != E; ++I) {
      Marked[I] = isMarkedNode(Mod, Analysis, ProcIdx, static_cast<NodeId>(I));
      if (!Marked[I]) {
        const CfgNode &Node = Proc.Nodes[I];
        if (Node.Kind == CfgNodeKind::Call &&
            (Node.Builtin == BuiltinKind::EnvInput ||
             Node.Builtin == BuiltinKind::EnvOutput))
          ++Stats.EnvCallsRemoved;
        else
          ++Stats.NodesEliminated;
      }
    }
  }

  /// Clones every marked node (payload sanitized per Step 5) into \p Out,
  /// recording the id mapping. Arcs are wired in a second pass.
  void createMarkedNodes(ProcCfg &Out) {
    NewId.assign(Proc.Nodes.size(), InvalidNode);
    for (size_t I = 0, E = Proc.Nodes.size(); I != E; ++I) {
      if (!Marked[I])
        continue;
      CfgNode Clone = Proc.Nodes[I].clone();
      Clone.Arcs.clear();
      sanitizeNode(Clone, static_cast<NodeId>(I));
      NewId[I] = static_cast<NodeId>(Out.Nodes.size());
      Out.Nodes.push_back(std::move(Clone));
    }
    assert(NewId[Proc.Entry] == 0 && "start node must map to entry");
  }

  /// Step 5 point 2 plus payload sanitization for visible operations.
  void sanitizeNode(CfgNode &Node, NodeId OrigId) {
    if (Node.Kind != CfgNodeKind::Call)
      return;

    if (Node.Builtin == BuiltinKind::None) {
      // User procedure: drop arguments whose parameter Step 5 removed.
      int CalleeIdx = Procs.lookup(Node.Callee);
      if (CalleeIdx < 0)
        return;
      const ProcTaint &Callee = Analysis.taint().Procs[CalleeIdx];
      std::vector<ExprPtr> Kept;
      for (size_t A = 0, AE = Node.Args.size(); A != AE; ++A) {
        if (A < Callee.TaintedParams.size() && Callee.TaintedParams[A]) {
          ++Stats.ArgsRemoved;
          continue;
        }
        Kept.push_back(std::move(Node.Args[A]));
      }
      Node.Args = std::move(Kept);
      return;
    }

    // Builtin: replace environment-dependent value arguments with the
    // distinguished `unknown` placeholder. The object argument (if any) is
    // never data. The taint query takes the open node's own argument: the
    // memo is keyed by address, and a clone may sit where a freed
    // expression was.
    const BuiltinInfo &Info = builtinInfo(Node.Builtin);
    unsigned FirstValueArg = Info.TakesObject ? 1 : 0;
    const CfgNode &Orig = Proc.Nodes[OrigId];
    for (size_t A = FirstValueArg, AE = Node.Args.size(); A != AE; ++A) {
      const Expr *Arg = Orig.Args[A].get();
      if (Arg->Kind == ExprKind::Unknown)
        continue; // Already sanitized (idempotence).
      if (Analysis.taint().exprTainted(Mod, Analysis.alias(), ProcIdx, OrigId,
                                       Arg, &Analysis.exprUsesCache())) {
        Node.Args[A] = Expr::unknown(Arg->Loc);
        ++Stats.PayloadsSanitized;
      }
    }
  }

  /// Step 4: reconstruct control flow, inserting VS_toss conditionals where
  /// the eliminated region had several marked continuations.
  void wireArcs(ProcCfg &Out) {
    for (size_t I = 0, E = Proc.Nodes.size(); I != E; ++I) {
      if (!Marked[I])
        continue;
      for (const CfgArc &Arc : Proc.Nodes[I].Arcs) {
        std::vector<NodeId> Succ = succSet(Proc, Marked, Arc);
        if (Succ.empty()) {
          // Point 2.1: the region beyond this arc diverges without ever
          // reaching a preserved statement; drop the arc.
          ++Stats.ArcsDropped;
          continue;
        }
        if (Succ.size() == 1) {
          // Index Out.Nodes afresh: toss insertion below may reallocate.
          Out.Nodes[NewId[I]].Arcs.push_back(
              {Arc.Kind, Arc.Value, NewId[Succ[0]]});
          continue;
        }
        // Point 2.3: conditional on VS_toss(|succ(a)| - 1).
        CfgNode Toss;
        Toss.Kind = CfgNodeKind::TossBranch;
        Toss.Loc = Proc.Nodes[I].Loc;
        Toss.TossBound = static_cast<int64_t>(Succ.size()) - 1;
        for (size_t S = 0, SE = Succ.size(); S != SE; ++S)
          Toss.Arcs.push_back({ArcKind::TossEq, static_cast<int64_t>(S),
                               NewId[Succ[S]]});
        NodeId TossId = static_cast<NodeId>(Out.Nodes.size());
        Out.Nodes.push_back(std::move(Toss));
        ++Stats.TossNodesInserted;
        // NewNode reference may be stale after push_back; reindex.
        Out.Nodes[NewId[I]].Arcs.push_back({Arc.Kind, Arc.Value, TossId});
      }
    }
  }

  const Module &Mod;
  const EnvAnalysis &Analysis;
  size_t ProcIdx;
  ClosingStats &Stats;
  const ProcIndex &Procs;
  const ProcCfg &Proc;
  const ProcTaint &PT;
  std::vector<bool> Marked;
  std::vector<NodeId> NewId;
};

} // namespace

ModuleCloser::ModuleCloser(const Module &Open, const EnvAnalysis &Analysis,
                           ClosingStats *StatsOut)
    : Open(Open), Analysis(Analysis), Stats(StatsOut ? *StatsOut : Local),
      Procs(Open) {
  Stats.NodesBefore = Open.totalNodes();
  Out.Comms = Open.Comms;
  Out.Globals = Open.Globals;
  Out.Procs.reserve(Open.Procs.size());
}

void ModuleCloser::closeProc(size_t ProcIdx) {
  assert(ProcIdx == Out.Procs.size() && "procedures close in order");
  Out.Procs.push_back(ProcCloser(Open, Analysis, ProcIdx, Stats, Procs).run());
}

Module ModuleCloser::finish() {
  assert(Out.Procs.size() == Open.Procs.size() && "a procedure is unclosed");
  // Step 5 for process instantiations: drop the arguments bound to removed
  // top-level parameters (this also drops the `env` markers, making the
  // instantiations closed).
  for (const ProcessDecl &Inst : Open.Processes) {
    ProcessDecl NewInst = Inst;
    int ProcIdx = Procs.lookup(Inst.ProcName);
    if (ProcIdx >= 0) {
      const ProcTaint &PT = Analysis.taint().Procs[ProcIdx];
      NewInst.Args.clear();
      for (size_t A = 0, AE = Inst.Args.size(); A != AE; ++A) {
        if (A < PT.TaintedParams.size() && PT.TaintedParams[A])
          continue;
        NewInst.Args.push_back(Inst.Args[A]);
      }
    }
    Out.Processes.push_back(std::move(NewInst));
  }

  Stats.NodesAfter = Out.totalNodes();
  return std::move(Out);
}

Module closer::closeModule(const Module &Mod, const EnvAnalysis &Analysis,
                           const ClosingOptions & /*Options*/,
                           ClosingStats *Stats) {
  ModuleCloser Closer(Mod, Analysis, Stats);
  for (size_t P = 0, E = Mod.Procs.size(); P != E; ++P)
    Closer.closeProc(P);
  return Closer.finish();
}

Module closer::closeModule(const Module &Mod, const ClosingOptions &Options,
                           ClosingStats *Stats) {
  EnvAnalysis Analysis(Mod, Options.Taint);
  return closeModule(Mod, Analysis, Options, Stats);
}

size_t closer::dedupTossBranches(ProcCfg &Proc) {
  size_t Removed = 0;
  // Merging one toss into another can make a third toss (whose arcs were
  // redirected) newly identical to a fourth; iterate to a fixpoint.
  for (;;) {
    // Key: bound plus the full labeled arc vector.
    std::map<std::pair<int64_t, std::vector<std::tuple<ArcKind, int64_t,
                                                       NodeId>>>,
             NodeId>
        Seen;
    std::map<NodeId, NodeId> Remap;
    for (size_t I = 0, E = Proc.Nodes.size(); I != E; ++I) {
      const CfgNode &Node = Proc.Nodes[I];
      if (Node.Kind != CfgNodeKind::TossBranch)
        continue;
      std::vector<std::tuple<ArcKind, int64_t, NodeId>> Arcs;
      Arcs.reserve(Node.Arcs.size());
      for (const CfgArc &Arc : Node.Arcs)
        Arcs.emplace_back(Arc.Kind, Arc.Value, Arc.Target);
      auto [It, Inserted] = Seen.try_emplace(
          {Node.TossBound, std::move(Arcs)}, static_cast<NodeId>(I));
      if (!Inserted)
        Remap.emplace(static_cast<NodeId>(I), It->second);
    }
    if (Remap.empty())
      break;
    for (CfgNode &Node : Proc.Nodes)
      for (CfgArc &Arc : Node.Arcs) {
        auto It = Remap.find(Arc.Target);
        if (It != Remap.end())
          Arc.Target = It->second;
      }
    Removed += Remap.size();
    // The merged duplicates are unreachable now; prune them before the
    // next round, which would otherwise find the same pairs again.
    pruneUnreachableNodes(Proc);
  }
  return Removed;
}

size_t closer::dedupTossBranches(Module &Mod,
                                 std::vector<size_t> *ChangedProcs) {
  size_t Removed = 0;
  for (size_t P = 0, E = Mod.Procs.size(); P != E; ++P) {
    size_t N = dedupTossBranches(Mod.Procs[P]);
    if (N && ChangedProcs)
      ChangedProcs->push_back(P);
    Removed += N;
  }
  return Removed;
}
