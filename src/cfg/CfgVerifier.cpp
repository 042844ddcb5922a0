//===- CfgVerifier.cpp - Structural CFG invariants --------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgVerifier.h"

#include <set>
#include <string>

using namespace closer;

namespace {

class ProcVerifier {
public:
  ProcVerifier(const Module &Mod, const ProcIndex &Procs, const ProcCfg &Proc,
               DiagnosticEngine &Diags)
      : Mod(Mod), Procs(Procs), Proc(Proc), Diags(Diags) {}

  bool run() {
    unsigned ErrorsBefore = Diags.errorCount();
    if (Proc.Nodes.empty()) {
      error(SourceLoc(), "procedure has no nodes");
      return false;
    }
    if (Proc.Entry != 0 || Proc.Nodes[0].Kind != CfgNodeKind::Start)
      error(SourceLoc(), "entry must be a Start node at index 0");
    for (size_t I = 0, E = Proc.Nodes.size(); I != E; ++I) {
      if (I != 0 && Proc.Nodes[I].Kind == CfgNodeKind::Start)
        error(Proc.Nodes[I].Loc, "multiple Start nodes");
      verifyNode(static_cast<NodeId>(I));
    }
    return Diags.errorCount() == ErrorsBefore;
  }

private:
  void error(SourceLoc Loc, const std::string &Message) {
    Diags.error(Loc, "[cfg:" + Proc.Name + "] " + Message);
  }

  void verifyArcsShape(const CfgNode &Node, NodeId Id) {
    for (const CfgArc &Arc : Node.Arcs)
      if (Arc.Target >= Proc.Nodes.size())
        error(Node.Loc,
              "node " + std::to_string(Id) + " has an out-of-range arc");

    switch (Node.Kind) {
    case CfgNodeKind::Start:
    case CfgNodeKind::Assign:
    case CfgNodeKind::Call:
      if (Node.Arcs.size() > 1 ||
          (Node.Arcs.size() == 1 && Node.Arcs[0].Kind != ArcKind::Always))
        error(Node.Loc, "node " + std::to_string(Id) +
                            " must have at most one Always arc");
      return;
    case CfgNodeKind::Branch: {
      if (Node.Arcs.size() != 2 || Node.Arcs[0].Kind != ArcKind::IfTrue ||
          Node.Arcs[1].Kind != ArcKind::IfFalse)
        error(Node.Loc, "branch node " + std::to_string(Id) +
                            " must have exactly IfTrue then IfFalse arcs");
      return;
    }
    case CfgNodeKind::Switch: {
      std::set<int64_t> Seen;
      unsigned Defaults = 0;
      for (const CfgArc &Arc : Node.Arcs) {
        if (Arc.Kind == ArcKind::CaseEq) {
          if (!Seen.insert(Arc.Value).second)
            error(Node.Loc, "switch node " + std::to_string(Id) +
                                " has duplicate case arcs");
        } else if (Arc.Kind == ArcKind::CaseDefault) {
          ++Defaults;
        } else {
          error(Node.Loc, "switch node " + std::to_string(Id) +
                              " has a non-case arc");
        }
      }
      if (Defaults != 1)
        error(Node.Loc, "switch node " + std::to_string(Id) +
                            " must have exactly one default arc");
      return;
    }
    case CfgNodeKind::TossBranch: {
      if (Node.TossBound < 0) {
        error(Node.Loc, "toss node " + std::to_string(Id) +
                            " has a negative bound");
        return;
      }
      std::set<int64_t> Seen;
      for (const CfgArc &Arc : Node.Arcs) {
        if (Arc.Kind != ArcKind::TossEq) {
          error(Node.Loc, "toss node " + std::to_string(Id) +
                              " has a non-TossEq arc");
          continue;
        }
        if (Arc.Value < 0 || Arc.Value > Node.TossBound ||
            !Seen.insert(Arc.Value).second)
          error(Node.Loc, "toss node " + std::to_string(Id) +
                              " has out-of-range or duplicate outcomes");
      }
      if (static_cast<int64_t>(Seen.size()) != Node.TossBound + 1)
        error(Node.Loc, "toss node " + std::to_string(Id) +
                            " does not cover all outcomes");
      return;
    }
    case CfgNodeKind::Return:
      if (!Node.Arcs.empty())
        error(Node.Loc, "return node " + std::to_string(Id) +
                            " must have no out-arcs");
      return;
    }
  }

  bool isKnownVar(const std::string &Name) const {
    return Proc.isParam(Name) || Proc.isLocal(Name) ||
           Mod.findGlobal(Name) != nullptr;
  }

  void verifyExpr(const Expr *E, NodeId Id, bool IsObjectArg = false) {
    if (!E)
      return;
    switch (E->Kind) {
    case ExprKind::IntLit:
    case ExprKind::Unknown:
      return;
    case ExprKind::VarRef:
      if (IsObjectArg) {
        if (!Mod.findComm(E->Name))
          error(E->Loc, "node " + std::to_string(Id) + ": '" + E->Name +
                            "' is not a communication object");
        return;
      }
      if (!isKnownVar(E->Name))
        error(E->Loc, "node " + std::to_string(Id) +
                          ": unknown variable '" + E->Name + "'");
      return;
    case ExprKind::ArrayIndex:
      if (!isKnownVar(E->Name))
        error(E->Loc, "node " + std::to_string(Id) + ": unknown array '" +
                          E->Name + "'");
      verifyExpr(E->Lhs.get(), Id);
      return;
    case ExprKind::Unary:
    case ExprKind::Deref:
    case ExprKind::AddrOf:
      verifyExpr(E->Lhs.get(), Id);
      return;
    case ExprKind::Binary:
      verifyExpr(E->Lhs.get(), Id);
      verifyExpr(E->Rhs.get(), Id);
      return;
    case ExprKind::Call:
      error(E->Loc, "node " + std::to_string(Id) +
                        ": call expressions must be lowered to Call nodes");
      return;
    }
  }

  void verifyNode(NodeId Id) {
    const CfgNode &Node = Proc.Nodes[Id];
    verifyArcsShape(Node, Id);

    switch (Node.Kind) {
    case CfgNodeKind::Start:
      if (Node.Target || Node.Value || !Node.Args.empty())
        error(Node.Loc, "start node must not use or define variables");
      return;
    case CfgNodeKind::Assign:
      if (!Node.Target || !Node.Value) {
        error(Node.Loc, "assign node " + std::to_string(Id) +
                            " missing target or value");
        return;
      }
      verifyExpr(Node.Target.get(), Id);
      verifyExpr(Node.Value.get(), Id);
      return;
    case CfgNodeKind::Branch:
    case CfgNodeKind::Switch:
      if (!Node.Value) {
        error(Node.Loc, "conditional node " + std::to_string(Id) +
                            " missing its condition");
        return;
      }
      verifyExpr(Node.Value.get(), Id);
      if (Node.Target)
        error(Node.Loc, "conditional nodes must not define variables");
      return;
    case CfgNodeKind::Call:
      verifyCall(Node, Id);
      return;
    case CfgNodeKind::TossBranch:
      if (Node.Target || Node.Value || !Node.Args.empty())
        error(Node.Loc, "toss node " + std::to_string(Id) +
                            " must not reference variables");
      return;
    case CfgNodeKind::Return:
      if (Node.Target || Node.Value)
        error(Node.Loc, "return node must not use or define variables");
      return;
    }
  }

  void verifyCall(const CfgNode &Node, NodeId Id) {
    if (Node.Target)
      verifyExpr(Node.Target.get(), Id);

    if (Node.Builtin == BuiltinKind::None) {
      const ProcCfg *Callee = Procs.find(Node.Callee);
      if (!Callee) {
        error(Node.Loc, "node " + std::to_string(Id) +
                            ": call to unknown procedure '" + Node.Callee +
                            "'");
        return;
      }
      if (Callee->Params.size() != Node.Args.size())
        error(Node.Loc, "node " + std::to_string(Id) + ": call to '" +
                            Node.Callee + "' has wrong arity");
      for (const ExprPtr &Arg : Node.Args)
        verifyExpr(Arg.get(), Id);
      return;
    }

    const BuiltinInfo &Info = builtinInfo(Node.Builtin);
    if (Node.Args.size() != Info.Arity) {
      error(Node.Loc, "node " + std::to_string(Id) + ": builtin '" +
                          Info.Name + "' has wrong arity");
      return;
    }
    if (Node.Target && !Info.HasResult)
      error(Node.Loc, "node " + std::to_string(Id) + ": builtin '" +
                          Info.Name + "' produces no result");
    unsigned FirstValueArg = 0;
    if (Info.TakesObject) {
      FirstValueArg = 1;
      const Expr *Obj = Node.Args[0].get();
      if (Obj->Kind != ExprKind::VarRef) {
        error(Obj->Loc, "node " + std::to_string(Id) +
                            ": object argument must be a name");
      } else {
        const CommDecl *Comm = Mod.findComm(Obj->Name);
        if (!Comm)
          error(Obj->Loc, "node " + std::to_string(Id) + ": '" + Obj->Name +
                              "' is not a communication object");
        else if (Comm->Kind != Info.ObjectKind)
          error(Obj->Loc, "node " + std::to_string(Id) + ": '" + Obj->Name +
                              "' has the wrong object kind for '" +
                              Info.Name + "'");
      }
    }
    for (unsigned I = FirstValueArg, E = Node.Args.size(); I != E; ++I)
      verifyExpr(Node.Args[I].get(), Id);
  }

  const Module &Mod;
  const ProcIndex &Procs;
  const ProcCfg &Proc;
  DiagnosticEngine &Diags;
};

} // namespace

bool closer::verifyProc(const Module &Mod, const ProcCfg &Proc,
                        DiagnosticEngine &Diags) {
  ProcIndex Procs(Mod);
  return ProcVerifier(Mod, Procs, Proc, Diags).run();
}

bool closer::verifyModule(const Module &Mod, DiagnosticEngine &Diags) {
  unsigned ErrorsBefore = Diags.errorCount();
  ProcIndex Procs(Mod);
  for (const ProcCfg &Proc : Mod.Procs)
    ProcVerifier(Mod, Procs, Proc, Diags).run();
  // Every process holds its own copy of the globals, so they must fit in
  // one process's storage. (A frame too large for it is a runtime error,
  // raised only if the procedure is ever called.)
  size_t GlobalCells = 0;
  for (const GlobalDecl &G : Mod.Globals) {
    GlobalCells = addCells(GlobalCells, G.ArraySize);
    if (GlobalCells > MaxProcessCells) {
      Diags.error(G.Loc, "[cfg] global '" + G.Name +
                             "' takes the globals past the " +
                             std::to_string(MaxProcessCells) +
                             " cells a process can hold");
      break;
    }
  }
  for (const ProcessDecl &P : Mod.Processes) {
    const ProcCfg *Proc = Procs.find(P.ProcName);
    if (!Proc) {
      Diags.error(P.Loc, "[cfg] process '" + P.Name +
                             "' references unknown procedure '" + P.ProcName +
                             "'");
      continue;
    }
    if (Proc->Params.size() != P.Args.size())
      Diags.error(P.Loc, "[cfg] process '" + P.Name +
                             "' has wrong argument count for '" + P.ProcName +
                             "'");
  }
  if (Mod.Processes.empty())
    Diags.warning(SourceLoc(), "[cfg] module declares no processes");
  return Diags.errorCount() == ErrorsBefore;
}
