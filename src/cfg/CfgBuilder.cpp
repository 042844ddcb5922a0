//===- CfgBuilder.cpp - AST to control-flow graph lowering -----------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgBuilder.h"

#include "lang/Parser.h"
#include "lang/Sema.h"

#include <cassert>
#include <unordered_map>
#include <utility>

using namespace closer;

namespace {

/// A dangling out-arc awaiting its target.
struct ArcRef {
  NodeId Node;
  size_t ArcIndex;
};

class ProcBuilder {
public:
  ProcBuilder(const Program &Prog, const ProcDecl &Decl) : Prog(Prog) {
    Result.Name = Decl.Name;
    for (const ParamDecl &P : Decl.Params)
      Result.Params.push_back(P.Name);

    // The Start node; uses and defines nothing (paper §4).
    CfgNode Start;
    Start.Kind = CfgNodeKind::Start;
    Start.Loc = Decl.Loc;
    Start.Arcs.push_back({ArcKind::Always, 0, InvalidNode});
    Result.Nodes.push_back(std::move(Start));
    Pending.push_back({0, 0});

    buildStmt(Decl.Body.get());
    finish();
  }

  ProcCfg take() { return std::move(Result); }

private:
  //===--------------------------------------------------------------------===//
  // Graph assembly helpers
  //===--------------------------------------------------------------------===//

  void patchArcs(const std::vector<ArcRef> &Arcs, NodeId Target) {
    for (const ArcRef &Ref : Arcs) {
      CfgArc &Arc = Result.Nodes[Ref.Node].Arcs[Ref.ArcIndex];
      assert(Arc.Target == InvalidNode && "patching an already-bound arc");
      Arc.Target = Target;
    }
  }

  /// Appends \p Node, binding all pending incoming arcs and waiting labels
  /// to it. Returns the new node's id; Pending is cleared.
  NodeId emit(CfgNode Node) {
    NodeId Id = static_cast<NodeId>(Result.Nodes.size());
    Result.Nodes.push_back(std::move(Node));
    patchArcs(Pending, Id);
    Pending.clear();
    for (const std::string &Label : PendingLabels) {
      BoundLabels[Label] = Id;
      auto It = LabelWaiters.find(Label);
      if (It != LabelWaiters.end()) {
        patchArcs(It->second, Id);
        LabelWaiters.erase(It);
      }
    }
    PendingLabels.clear();
    return Id;
  }

  /// Makes arc \p ArcIndex of node \p Id the (sole) pending successor slot.
  void setPending(NodeId Id, size_t ArcIndex) {
    Pending.clear();
    Pending.push_back({Id, ArcIndex});
  }

  void declareLocal(const std::string &Name, int64_t ArraySize) {
    if (!Result.isLocal(Name))
      Result.Locals.push_back({Name, ArraySize});
  }

  //===--------------------------------------------------------------------===//
  // Statement lowering
  //===--------------------------------------------------------------------===//

  void buildStmt(const Stmt *S) {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::Block:
      for (const StmtPtr &Sub : S->Body)
        buildStmt(Sub.get());
      return;
    case StmtKind::Empty:
      return;
    case StmtKind::VarDecl: {
      declareLocal(S->Name, S->ArraySize);
      if (S->Cond)
        emitAssign(Expr::varRef(S->Name, S->Loc), S->Cond.get(), S->Loc);
      return;
    }
    case StmtKind::Assign:
      emitAssign(S->Target->clone(), S->Value.get(), S->Loc);
      return;
    case StmtKind::ExprCall:
      emitCall(nullptr, S->Value.get(), S->Loc);
      return;
    case StmtKind::If:
      buildIf(S);
      return;
    case StmtKind::While:
      buildWhile(S);
      return;
    case StmtKind::For:
      buildFor(S);
      return;
    case StmtKind::Switch:
      buildSwitch(S);
      return;
    case StmtKind::Return:
      buildReturn(S);
      return;
    case StmtKind::Break:
      assert(!BreakStack.empty() && "sema guarantees break is inside a loop");
      BreakStack.back().insert(BreakStack.back().end(), Pending.begin(),
                               Pending.end());
      Pending.clear();
      return;
    case StmtKind::Continue:
      assert(!ContinueStack.empty() &&
             "sema guarantees continue is inside a loop");
      ContinueStack.back().insert(ContinueStack.back().end(), Pending.begin(),
                                  Pending.end());
      Pending.clear();
      return;
    case StmtKind::Goto: {
      auto It = BoundLabels.find(S->Name);
      if (It != BoundLabels.end()) {
        patchArcs(Pending, It->second);
      } else {
        auto &Waiters = LabelWaiters[S->Name];
        Waiters.insert(Waiters.end(), Pending.begin(), Pending.end());
      }
      Pending.clear();
      return;
    }
    case StmtKind::Label:
      PendingLabels.push_back(S->Name);
      buildStmt(S->ThenBody.get());
      return;
    }
  }

  /// Lowers `Target = Value` where Value may be a call expression.
  void emitAssign(ExprPtr Target, const Expr *Value, SourceLoc Loc) {
    if (Value->Kind == ExprKind::Call) {
      emitCall(std::move(Target), Value, Loc);
      return;
    }
    CfgNode Node;
    Node.Kind = CfgNodeKind::Assign;
    Node.Loc = Loc;
    Node.Target = std::move(Target);
    Node.Value = Value->clone();
    Node.Arcs.push_back({ArcKind::Always, 0, InvalidNode});
    NodeId Id = emit(std::move(Node));
    setPending(Id, 0);
  }

  void emitCall(ExprPtr Target, const Expr *Call, SourceLoc Loc) {
    assert(Call->Kind == ExprKind::Call && "emitCall requires a call expr");
    CfgNode Node;
    Node.Kind = CfgNodeKind::Call;
    Node.Loc = Loc;
    Node.Target = std::move(Target);
    Node.Callee = Call->Name;
    Node.Builtin = lookupBuiltin(Call->Name).Kind;
    for (const ExprPtr &Arg : Call->Args)
      Node.Args.push_back(Arg->clone());
    Node.Arcs.push_back({ArcKind::Always, 0, InvalidNode});
    NodeId Id = emit(std::move(Node));
    setPending(Id, 0);
  }

  void buildIf(const Stmt *S) {
    CfgNode Node;
    Node.Kind = CfgNodeKind::Branch;
    Node.Loc = S->Loc;
    Node.Value = S->Cond->clone();
    Node.Arcs.push_back({ArcKind::IfTrue, 0, InvalidNode});
    Node.Arcs.push_back({ArcKind::IfFalse, 0, InvalidNode});
    NodeId BranchId = emit(std::move(Node));

    setPending(BranchId, 0);
    buildStmt(S->ThenBody.get());
    std::vector<ArcRef> AfterThen = std::move(Pending);

    setPending(BranchId, 1);
    if (S->ElseBody)
      buildStmt(S->ElseBody.get());
    // Join.
    Pending.insert(Pending.end(), AfterThen.begin(), AfterThen.end());
  }

  void buildWhile(const Stmt *S) {
    CfgNode Node;
    Node.Kind = CfgNodeKind::Branch;
    Node.Loc = S->Loc;
    Node.Value = S->Cond->clone();
    Node.Arcs.push_back({ArcKind::IfTrue, 0, InvalidNode});
    Node.Arcs.push_back({ArcKind::IfFalse, 0, InvalidNode});
    NodeId CondId = emit(std::move(Node));

    BreakStack.emplace_back();
    ContinueStack.emplace_back();
    setPending(CondId, 0);
    buildStmt(S->ThenBody.get());
    // Back edges: body fallthrough and continues return to the condition.
    Pending.insert(Pending.end(), ContinueStack.back().begin(),
                   ContinueStack.back().end());
    patchArcs(Pending, CondId);
    Pending.clear();

    std::vector<ArcRef> Breaks = std::move(BreakStack.back());
    BreakStack.pop_back();
    ContinueStack.pop_back();

    setPending(CondId, 1);
    Pending.insert(Pending.end(), Breaks.begin(), Breaks.end());
  }

  void buildFor(const Stmt *S) {
    if (S->InitStmt)
      buildStmt(S->InitStmt.get());

    CfgNode Node;
    Node.Kind = CfgNodeKind::Branch;
    Node.Loc = S->Loc;
    Node.Value = S->Cond ? S->Cond->clone() : Expr::intLit(1, S->Loc);
    Node.Arcs.push_back({ArcKind::IfTrue, 0, InvalidNode});
    Node.Arcs.push_back({ArcKind::IfFalse, 0, InvalidNode});
    NodeId CondId = emit(std::move(Node));

    BreakStack.emplace_back();
    ContinueStack.emplace_back();
    setPending(CondId, 0);
    buildStmt(S->ThenBody.get());

    // The step runs after the body and after every continue.
    Pending.insert(Pending.end(), ContinueStack.back().begin(),
                   ContinueStack.back().end());
    if (S->StepStmt)
      buildStmt(S->StepStmt.get());
    patchArcs(Pending, CondId);
    Pending.clear();

    std::vector<ArcRef> Breaks = std::move(BreakStack.back());
    BreakStack.pop_back();
    ContinueStack.pop_back();

    setPending(CondId, 1);
    Pending.insert(Pending.end(), Breaks.begin(), Breaks.end());
  }

  void buildSwitch(const Stmt *S) {
    CfgNode Node;
    Node.Kind = CfgNodeKind::Switch;
    Node.Loc = S->Loc;
    Node.Value = S->Cond->clone();
    for (const SwitchCase &Arm : S->Cases)
      Node.Arcs.push_back({ArcKind::CaseEq, Arm.Value, InvalidNode});
    Node.Arcs.push_back({ArcKind::CaseDefault, 0, InvalidNode});
    NodeId SwitchId = emit(std::move(Node));

    std::vector<ArcRef> Exits;
    BreakStack.emplace_back();
    for (size_t I = 0, E = S->Cases.size(); I != E; ++I) {
      setPending(SwitchId, I);
      for (const StmtPtr &Sub : S->Cases[I].Body)
        buildStmt(Sub.get());
      Exits.insert(Exits.end(), Pending.begin(), Pending.end());
      Pending.clear();
    }
    setPending(SwitchId, S->Cases.size()); // CaseDefault arc.
    if (S->HasDefault)
      for (const StmtPtr &Sub : S->DefaultBody)
        buildStmt(Sub.get());
    Exits.insert(Exits.end(), Pending.begin(), Pending.end());

    Exits.insert(Exits.end(), BreakStack.back().begin(),
                 BreakStack.back().end());
    BreakStack.pop_back();
    Pending = std::move(Exits);
  }

  void buildReturn(const Stmt *S) {
    if (S->Cond) {
      declareLocal(retValName(), -1);
      emitAssign(Expr::varRef(retValName(), S->Loc), S->Cond.get(), S->Loc);
    }
    CfgNode Node;
    Node.Kind = CfgNodeKind::Return;
    Node.Loc = S->Loc;
    emit(std::move(Node));
    // Return has no out-arcs; whatever follows is unreachable until a label
    // binds it.
  }

  /// Terminates the procedure: any remaining fallthrough (and degenerate
  /// label-only cycles) reach an implicit Return, then unreachable nodes
  /// are pruned.
  void finish() {
    if (!Pending.empty() || !PendingLabels.empty() || !LabelWaiters.empty()) {
      CfgNode Node;
      Node.Kind = CfgNodeKind::Return;
      NodeId Id = emit(std::move(Node));
      // Degenerate `L: goto L;` cycles never bind their label; normalize
      // them to termination rather than leaving dangling arcs.
      for (auto &[Label, Waiters] : LabelWaiters)
        patchArcs(Waiters, Id);
      LabelWaiters.clear();
    }
    pruneUnreachableNodes(Result);
  }

  const Program &Prog;
  ProcCfg Result;
  std::vector<ArcRef> Pending;
  std::vector<std::vector<ArcRef>> BreakStack;
  std::vector<std::vector<ArcRef>> ContinueStack;
  std::vector<std::string> PendingLabels;
  std::unordered_map<std::string, NodeId> BoundLabels;
  std::unordered_map<std::string, std::vector<ArcRef>> LabelWaiters;
};

} // namespace

std::unique_ptr<Module> closer::buildModule(Program &Prog,
                                            DiagnosticEngine &Diags) {
  auto Mod = std::make_unique<Module>();
  Mod->Comms = Prog.Comms;
  Mod->Globals = Prog.Globals;
  Mod->Processes = Prog.Processes;
  Mod->Procs.reserve(Prog.Procs.size());
  for (ProcDecl &P : Prog.Procs) {
    ProcBuilder Builder(Prog, P);
    Mod->Procs.push_back(Builder.take());
    // The nodes own clones of the procedure's expressions, so free its
    // whole body now: the freed statements and expressions lie together
    // and leave room the next procedures' nodes reuse in one piece.
    // Moving the expressions instead would leave each freed statement a
    // hole between expressions the module keeps, which the heap cannot
    // hand back or merge.
    P.Body.reset();
  }
  if (Diags.hasErrors())
    return nullptr;
  return Mod;
}

std::unique_ptr<Module> closer::compileMiniC(const std::string &Source,
                                             DiagnosticEngine &Diags) {
  std::unique_ptr<Program> Prog = parseMiniC(Source, Diags);
  if (!Prog)
    return nullptr;
  if (!checkProgram(*Prog, Diags))
    return nullptr;
  return buildModule(*Prog, Diags);
}
