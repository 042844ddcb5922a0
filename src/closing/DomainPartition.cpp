//===- DomainPartition.cpp - Input-domain partitioning (§7) -----------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "closing/DomainPartition.h"

#include "dataflow/AnalysisManager.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace closer;

namespace {

/// True when \p E is exactly `Var cmp IntLit` or `IntLit cmp Var` for the
/// given variable. Collects the constant into \p Constants.
bool isConstComparison(const Expr *E, const std::string &Var,
                       std::set<int64_t> &Constants) {
  if (!E || E->Kind != ExprKind::Binary)
    return false;
  switch (E->BOp) {
  case BinaryOp::Eq:
  case BinaryOp::Ne:
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
    break;
  default:
    return false;
  }
  const Expr *L = E->Lhs.get();
  const Expr *R = E->Rhs.get();
  if (L->Kind == ExprKind::VarRef && L->Name == Var &&
      R->Kind == ExprKind::IntLit) {
    Constants.insert(R->IntValue);
    return true;
  }
  if (R->Kind == ExprKind::VarRef && R->Name == Var &&
      L->Kind == ExprKind::IntLit) {
    Constants.insert(L->IntValue);
    return true;
  }
  return false;
}

/// True when any expression in \p Proc takes the address of \p Var.
bool isAddressTaken(const ProcCfg &Proc, const std::string &Var) {
  std::vector<const Expr *> Stack;
  for (const CfgNode &Node : Proc.Nodes) {
    Stack.push_back(Node.Target.get());
    Stack.push_back(Node.Value.get());
    for (const ExprPtr &Arg : Node.Args)
      Stack.push_back(Arg.get());
  }
  while (!Stack.empty()) {
    const Expr *E = Stack.back();
    Stack.pop_back();
    if (!E)
      continue;
    if (E->Kind == ExprKind::AddrOf && E->Lhs->Kind == ExprKind::VarRef &&
        E->Lhs->Name == Var)
      return true;
    E->forEachChild([&](const Expr *Sub) { Stack.push_back(Sub); });
  }
  return false;
}

/// Representatives covering every class of the partition induced by
/// comparisons against \p Constants: each threshold, plus both neighbors.
std::vector<int64_t> representatives(const std::set<int64_t> &Constants) {
  std::set<int64_t> Reps;
  for (int64_t C : Constants) {
    Reps.insert(C - 1);
    Reps.insert(C);
    Reps.insert(C + 1);
  }
  return {Reps.begin(), Reps.end()};
}

/// Checks that every define-use successor of a definition of \p Var is an
/// eligible constant comparison; collects the thresholds.
bool usesAreEligible(const ProcCfg &Proc, DuArcRange Uses,
                     const std::string &Var, std::set<int64_t> &Constants) {
  for (const auto &[UseNode, UseVar] : Uses) {
    if (*UseVar != Var)
      continue;
    const CfgNode &M = Proc.Nodes[UseNode];
    if (M.Kind != CfgNodeKind::Branch)
      return false;
    if (!isConstComparison(M.Value.get(), Var, Constants))
      return false;
  }
  return true;
}

/// Splices a nondeterministic choice over \p Reps assigning \p Var before
/// continuing to \p Succ (InvalidNode = halt). The choice is materialized
/// as a TossBranch plus one Assign per representative, appended to
/// \p Proc. Returns the TossBranch id.
NodeId spliceChoice(ProcCfg &Proc, const std::string &Var,
                    const std::vector<int64_t> &Reps, NodeId Succ,
                    SourceLoc Loc) {
  CfgNode Toss;
  Toss.Kind = CfgNodeKind::TossBranch;
  Toss.Loc = Loc;
  Toss.TossBound = static_cast<int64_t>(Reps.size()) - 1;
  NodeId TossId = static_cast<NodeId>(Proc.Nodes.size());
  Proc.Nodes.push_back(std::move(Toss));

  for (size_t I = 0, E = Reps.size(); I != E; ++I) {
    CfgNode Assign;
    Assign.Kind = CfgNodeKind::Assign;
    Assign.Loc = Loc;
    Assign.Target = Expr::varRef(Var, Loc);
    Assign.Value = Expr::intLit(Reps[I], Loc);
    if (Succ != InvalidNode)
      Assign.Arcs.push_back({ArcKind::Always, 0, Succ});
    NodeId AssignId = static_cast<NodeId>(Proc.Nodes.size());
    Proc.Nodes.push_back(std::move(Assign));
    Proc.Nodes[TossId].Arcs.push_back(
        {ArcKind::TossEq, static_cast<int64_t>(I), AssignId});
  }
  return TossId;
}

} // namespace

bool closer::partitionInputsInPlace(Module &Mod, AnalysisManager &AM,
                                    const PartitionOptions &Options,
                                    PartitionStats *Stats) {
  PartitionStats Local;
  PartitionStats &S = Stats ? *Stats : Local;
  assert(&AM.module() == &Mod && "manager must be bound to the module");
  bool AnyChanged = false;

  // Which procedures are called internally (their parameters are not pure
  // environment interfaces even if a process also instantiates them)?
  std::set<std::string> InternallyCalled;
  for (const ProcCfg &Proc : Mod.Procs)
    for (const CfgNode &Node : Proc.Nodes)
      if (Node.Kind == CfgNodeKind::Call && Node.Builtin == BuiltinKind::None)
        InternallyCalled.insert(Node.Callee);

  for (size_t PI = 0, PE = Mod.Procs.size(); PI != PE; ++PI) {
    ProcCfg &Proc = Mod.Procs[PI];
    // The define-use graph of the pristine procedure. Requested eagerly so
    // a partition pre-pass warms the cache for every procedure, changed or
    // not.
    const ProcDataflow *DF = &AM.getDefUse(PI);
    bool ProcChanged = false;

    // --- env_input() sites -----------------------------------------------
    size_t OriginalCount = Proc.Nodes.size();
    for (size_t I = 0; I != OriginalCount; ++I) {
      CfgNode &Node = Proc.Nodes[I];
      if (Node.Kind != CfgNodeKind::Call ||
          Node.Builtin != BuiltinKind::EnvInput)
        continue;
      if (!Node.Target || Node.Target->Kind != ExprKind::VarRef) {
        ++S.InputsLeftOpen;
        continue;
      }
      std::string Var = Node.Target->Name;
      if (isAddressTaken(Proc, Var) || Mod.findGlobal(Var)) {
        ++S.InputsLeftOpen;
        continue;
      }
      std::set<int64_t> Constants;
      if (!usesAreEligible(Proc, DF->duSuccessors(static_cast<NodeId>(I)),
                           Var, Constants) ||
          Constants.empty()) {
        ++S.InputsLeftOpen;
        continue;
      }
      std::vector<int64_t> Reps = representatives(Constants);
      if (Reps.size() > Options.MaxRepresentatives) {
        ++S.InputsLeftOpen;
        continue;
      }

      // Rewrite: the env_input node becomes the nondeterministic choice.
      NodeId Succ =
          Node.Arcs.empty() ? InvalidNode : Node.Arcs[0].Target;
      SourceLoc Loc = Node.Loc;
      NodeId TossId = spliceChoice(Proc, Var, Reps, Succ, Loc);
      // Redirect the original node into a skip to the choice (turn it into
      // a trivial assign so ids stay stable).
      CfgNode &Orig = Proc.Nodes[I]; // Re-index: vector may have grown.
      Orig.Kind = CfgNodeKind::Assign;
      Orig.Builtin = BuiltinKind::None;
      Orig.Callee = Symbol();
      Orig.Args.clear();
      Orig.Target = Expr::varRef(Var, Loc);
      Orig.Value = Expr::intLit(0, Loc);
      Orig.Arcs.clear();
      Orig.Arcs.push_back({ArcKind::Always, 0, TossId});
      ProcChanged = true;
      ++S.InputsPartitioned;
      S.RepresentativesTotal += Reps.size();
    }

    if (ProcChanged) {
      AM.invalidateProc(PI, /*AliasPreserved=*/true);
      AnyChanged = true;
    }

    // --- env process arguments -------------------------------------------
    if (InternallyCalled.count(Proc.Name))
      continue;
    // All instantiations must agree that a parameter is environment-bound.
    std::vector<int> EnvBound(Proc.Params.size(), -1); // -1 unseen, 1 env,
                                                       // 0 mixed/const.
    for (const ProcessDecl &Inst : Mod.Processes) {
      if (Inst.ProcName != Proc.Name)
        continue;
      for (size_t P = 0; P < Proc.Params.size() && P < Inst.Args.size();
           ++P) {
        int Kind = Inst.Args[P].IsEnv ? 1 : 0;
        if (EnvBound[P] == -1)
          EnvBound[P] = Kind;
        else if (EnvBound[P] != Kind)
          EnvBound[P] = 0;
      }
    }

    // Fresh define-use facts after the env_input rewrites above (a cache
    // hit when nothing changed).
    DF = &AM.getDefUse(PI);
    // Parameters partitioned this scan, by original index (ascending).
    // Erasing from Params / Inst.Args mid-loop shifts every later index,
    // which historically removed the wrong slot once a procedure had two
    // partitionable parameters; instead the scan only records indices and
    // a single compaction pass below erases them back-to-front.
    std::vector<size_t> DroppedParams;
    for (size_t P = 0; P != Proc.Params.size(); ++P) {
      if (EnvBound[P] != 1)
        continue;
      const std::string &Var = Proc.Params[P];
      if (isAddressTaken(Proc, Var))
        continue;
      // Every use reached by the entry value must be an eligible
      // comparison.
      std::set<int64_t> Constants;
      bool Eligible = true;
      for (size_t I = 0, E = Proc.Nodes.size(); I != E && Eligible; ++I) {
        if (!DF->uses(static_cast<NodeId>(I)).count(Var))
          continue;
        if (!DF->paramEntryReaches(static_cast<NodeId>(I), Var))
          continue;
        const CfgNode &M = Proc.Nodes[I];
        if (M.Kind != CfgNodeKind::Branch ||
            !isConstComparison(M.Value.get(), Var, Constants))
          Eligible = false;
      }
      if (!Eligible || Constants.empty()) {
        ++S.InputsLeftOpen;
        continue;
      }
      std::vector<int64_t> Reps = representatives(Constants);
      if (Reps.size() > Options.MaxRepresentatives) {
        ++S.InputsLeftOpen;
        continue;
      }

      // Splice the choice between Start and its successor; the parameter
      // becomes an ordinary (initialized) local bound by the choice.
      NodeId StartSucc = Proc.Nodes[Proc.Entry].Arcs.empty()
                             ? InvalidNode
                             : Proc.Nodes[Proc.Entry].Arcs[0].Target;
      NodeId TossId = spliceChoice(Proc, Var, Reps, StartSucc, SourceLoc());
      Proc.Nodes[Proc.Entry].Arcs.clear();
      Proc.Nodes[Proc.Entry].Arcs.push_back({ArcKind::Always, 0, TossId});

      // Keep storage as a local; the signature slot goes away in the
      // compaction pass after the scan. The CFG grew, so later parameters
      // must be judged against recomputed define-use facts. (The old
      // two-step driver kept consulting the stale pre-splice graph here,
      // indexing past its node vectors when a procedure had a second
      // partitionable parameter.)
      Proc.Locals.push_back({Var, -1});
      DroppedParams.push_back(P);
      AM.invalidateProc(PI, /*AliasPreserved=*/true);
      DF = &AM.getDefUse(PI);
      AnyChanged = true;
      ++S.ParamsPartitioned;
      S.RepresentativesTotal += Reps.size();
    }

    // Single compaction pass: erase partitioned slots from the signature
    // and every instantiation back-to-front, so each recorded index is
    // still the slot it was recorded against.
    for (size_t K = DroppedParams.size(); K != 0; --K) {
      size_t P = DroppedParams[K - 1];
      Proc.Params.erase(Proc.Params.begin() + static_cast<long>(P));
      for (ProcessDecl &Inst : Mod.Processes) {
        if (Inst.ProcName != Proc.Name)
          continue;
        if (P < Inst.Args.size())
          Inst.Args.erase(Inst.Args.begin() + static_cast<long>(P));
      }
    }
    if (!DroppedParams.empty())
      AM.invalidateProc(PI, /*AliasPreserved=*/true);
  }

  return AnyChanged;
}

Module closer::partitionInputs(const Module &Mod,
                               const PartitionOptions &Options,
                               PartitionStats *Stats) {
  Module Out = Mod.clone();
  AnalysisManager AM(Out);
  partitionInputsInPlace(Out, AM, Options, Stats);
  return Out;
}
