//===- Sema.cpp - MiniC semantic analysis ----------------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "lang/Sema.h"

#include "lang/Builtins.h"

#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

using namespace closer;

namespace {

/// Procedure name -> declaration, built once per checkProgram so call
/// sites resolve with one hash lookup instead of a scan of Prog.Procs.
/// Duplicate names resolve to the first declaration.
using ProcDeclIndex = std::unordered_map<std::string_view, const ProcDecl *>;

const ProcDecl *findProc(const ProcDeclIndex &Procs, std::string_view Name) {
  auto It = Procs.find(Name);
  return It == Procs.end() ? nullptr : It->second;
}

/// Walks one procedure body checking scoping and call discipline.
class ProcChecker {
public:
  ProcChecker(const Program &Prog, const ProcDeclIndex &Procs,
              const ProcDecl &Proc, DiagnosticEngine &Diags)
      : Prog(Prog), Procs(Procs), Proc(Proc), Diags(Diags) {}

  void run() {
    for (const ParamDecl &P : Proc.Params)
      declare(P.Name, P.Loc, /*IsArray=*/false);
    collectLabels(Proc.Body.get());
    checkStmt(Proc.Body.get());
  }

private:
  struct VarInfo {
    bool IsArray = false;
  };

  void declare(const std::string &Name, SourceLoc Loc, bool IsArray) {
    if (isBuiltinName(Name)) {
      Diags.error(Loc, "'" + Name + "' is a builtin name");
      return;
    }
    if (findComm(Name)) {
      Diags.error(Loc, "'" + Name + "' is a communication object");
      return;
    }
    // Shadowing a global is rejected: every name must denote a single
    // memory location per activation so the define-use analysis can be
    // keyed by name.
    for (const GlobalDecl &G : Prog.Globals)
      if (G.Name == Name) {
        Diags.error(Loc, "redeclaration of global '" + Name +
                             "' as a local in procedure '" + Proc.Name +
                             "'");
        return;
      }
    if (!Vars.emplace(Name, VarInfo{IsArray}).second)
      Diags.error(Loc, "redeclaration of '" + Name + "' in procedure '" +
                           Proc.Name + "'");
  }

  const CommDecl *findComm(const std::string &Name) const {
    for (const CommDecl &C : Prog.Comms)
      if (C.Name == Name)
        return &C;
    return nullptr;
  }

  const VarInfo *findVar(const std::string &Name) {
    auto It = Vars.find(Name);
    if (It != Vars.end())
      return &It->second;
    for (const GlobalDecl &G : Prog.Globals)
      if (G.Name == Name) {
        auto [Slot, Inserted] = Vars.emplace(Name, VarInfo{G.ArraySize >= 0});
        (void)Inserted;
        return &Slot->second;
      }
    return nullptr;
  }

  void collectLabels(const Stmt *S) {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::Label:
      if (!Labels.insert(S->Name).second)
        Diags.error(S->Loc, "duplicate label '" + S->Name + "'");
      collectLabels(S->ThenBody.get());
      break;
    case StmtKind::Block:
      for (const StmtPtr &Sub : S->Body)
        collectLabels(Sub.get());
      break;
    case StmtKind::If:
      collectLabels(S->ThenBody.get());
      collectLabels(S->ElseBody.get());
      break;
    case StmtKind::While:
      collectLabels(S->ThenBody.get());
      break;
    case StmtKind::For:
      collectLabels(S->InitStmt.get());
      collectLabels(S->StepStmt.get());
      collectLabels(S->ThenBody.get());
      break;
    case StmtKind::Switch:
      for (const SwitchCase &Arm : S->Cases)
        for (const StmtPtr &Sub : Arm.Body)
          collectLabels(Sub.get());
      for (const StmtPtr &Sub : S->DefaultBody)
        collectLabels(Sub.get());
      break;
    default:
      break;
    }
  }

  /// Checks an expression in value position. \p AllowCall permits a Call at
  /// the top level (assignment RHS); nested calls are always rejected.
  void checkExpr(const Expr *E, bool AllowCall) {
    if (!E)
      return;
    switch (E->Kind) {
    case ExprKind::IntLit:
    case ExprKind::Unknown:
      return;
    case ExprKind::VarRef: {
      if (const CommDecl *Comm = findComm(E->Name)) {
        Diags.error(E->Loc, "communication object '" + Comm->Name +
                                "' can only be used via its builtins");
        return;
      }
      const VarInfo *Info = findVar(E->Name);
      if (!Info) {
        Diags.error(E->Loc, "use of undeclared variable '" + E->Name + "'");
        return;
      }
      if (Info->IsArray)
        Diags.error(E->Loc,
                    "array '" + E->Name + "' must be used with an index");
      return;
    }
    case ExprKind::ArrayIndex: {
      const VarInfo *Info = findVar(E->Name);
      if (!Info) {
        Diags.error(E->Loc, "use of undeclared array '" + E->Name + "'");
      } else if (!Info->IsArray) {
        Diags.error(E->Loc, "'" + E->Name + "' is not an array");
      }
      checkExpr(E->Lhs.get(), /*AllowCall=*/false);
      return;
    }
    case ExprKind::Unary:
    case ExprKind::Deref:
      checkExpr(E->Lhs.get(), /*AllowCall=*/false);
      return;
    case ExprKind::AddrOf: {
      const Expr *Place = E->Lhs.get();
      if (Place->Kind == ExprKind::VarRef) {
        if (findComm(Place->Name)) {
          Diags.error(E->Loc, "cannot take the address of a communication "
                              "object");
          return;
        }
        if (!findVar(Place->Name))
          Diags.error(Place->Loc,
                      "use of undeclared variable '" + Place->Name + "'");
        return;
      }
      checkExpr(Place, /*AllowCall=*/false);
      return;
    }
    case ExprKind::Binary:
      checkExpr(E->Lhs.get(), /*AllowCall=*/false);
      checkExpr(E->Rhs.get(), /*AllowCall=*/false);
      return;
    case ExprKind::Call:
      if (!AllowCall) {
        Diags.error(E->Loc, "calls may only appear as a whole statement or "
                            "as the entire right-hand side of an assignment");
        return;
      }
      checkCall(E, /*InExprPosition=*/true);
      return;
    }
  }

  /// Checks a call in statement position (\p InExprPosition false) or as an
  /// assignment RHS (\p InExprPosition true).
  void checkCall(const Expr *Call, bool InExprPosition) {
    const BuiltinInfo &Info = lookupBuiltin(Call->Name);
    if (Info.Kind == BuiltinKind::None) {
      const ProcDecl *Callee = findProc(Procs, Call->Name);
      if (!Callee) {
        Diags.error(Call->Loc,
                    "call to undefined procedure '" + Call->Name + "'");
        return;
      }
      if (Callee->Params.size() != Call->Args.size())
        Diags.error(Call->Loc, "procedure '" + Call->Name + "' expects " +
                                   std::to_string(Callee->Params.size()) +
                                   " argument(s), got " +
                                   std::to_string(Call->Args.size()));
      for (const ExprPtr &Arg : Call->Args)
        checkExpr(Arg.get(), /*AllowCall=*/false);
      return;
    }

    if (Call->Args.size() != Info.Arity) {
      Diags.error(Call->Loc, std::string("builtin '") + Info.Name +
                                 "' expects " + std::to_string(Info.Arity) +
                                 " argument(s), got " +
                                 std::to_string(Call->Args.size()));
      return;
    }
    if (InExprPosition && !Info.HasResult) {
      Diags.error(Call->Loc, std::string("builtin '") + Info.Name +
                                 "' produces no value");
      return;
    }
    if (!InExprPosition && Info.HasResult)
      Diags.warning(Call->Loc, std::string("result of builtin '") +
                                   Info.Name + "' is discarded");

    unsigned FirstValueArg = 0;
    if (Info.TakesObject) {
      FirstValueArg = 1;
      const Expr *ObjArg = Call->Args[0].get();
      if (ObjArg->Kind != ExprKind::VarRef) {
        Diags.error(ObjArg->Loc, std::string("first argument of '") +
                                     Info.Name +
                                     "' must name a communication object");
      } else {
        const CommDecl *Comm = findComm(ObjArg->Name);
        if (!Comm) {
          Diags.error(ObjArg->Loc, "'" + ObjArg->Name +
                                       "' is not a communication object");
        } else if (Comm->Kind != Info.ObjectKind) {
          Diags.error(ObjArg->Loc, "'" + ObjArg->Name +
                                       "' has the wrong communication-object "
                                       "kind for '" +
                                       Info.Name + "'");
        }
      }
    }
    for (unsigned I = FirstValueArg, E = Call->Args.size(); I != E; ++I)
      checkExpr(Call->Args[I].get(), /*AllowCall=*/false);
  }

  void checkLValue(const Expr *Target) {
    switch (Target->Kind) {
    case ExprKind::VarRef: {
      if (findComm(Target->Name)) {
        Diags.error(Target->Loc,
                    "cannot assign to communication object '" + Target->Name +
                        "'; use its builtins");
        return;
      }
      const VarInfo *Info = findVar(Target->Name);
      if (!Info) {
        Diags.error(Target->Loc,
                    "assignment to undeclared variable '" + Target->Name +
                        "'");
        return;
      }
      if (Info->IsArray)
        Diags.error(Target->Loc, "cannot assign to whole array '" +
                                     Target->Name + "'");
      return;
    }
    case ExprKind::ArrayIndex:
      checkExpr(Target, /*AllowCall=*/false);
      return;
    case ExprKind::Deref:
      checkExpr(Target->Lhs.get(), /*AllowCall=*/false);
      return;
    default:
      Diags.error(Target->Loc, "invalid assignment target");
    }
  }

  void checkStmt(const Stmt *S) {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::VarDecl:
      declare(S->Name, S->Loc, S->ArraySize >= 0);
      checkExpr(S->Cond.get(), /*AllowCall=*/true);
      return;
    case StmtKind::Assign:
      checkLValue(S->Target.get());
      checkExpr(S->Value.get(), /*AllowCall=*/true);
      return;
    case StmtKind::ExprCall:
      checkCall(S->Value.get(), /*InExprPosition=*/false);
      return;
    case StmtKind::If:
      checkExpr(S->Cond.get(), /*AllowCall=*/false);
      checkStmt(S->ThenBody.get());
      checkStmt(S->ElseBody.get());
      return;
    case StmtKind::While:
      checkExpr(S->Cond.get(), /*AllowCall=*/false);
      ++LoopDepth;
      checkStmt(S->ThenBody.get());
      --LoopDepth;
      return;
    case StmtKind::For:
      checkStmt(S->InitStmt.get());
      checkExpr(S->Cond.get(), /*AllowCall=*/false);
      checkStmt(S->StepStmt.get());
      ++LoopDepth;
      checkStmt(S->ThenBody.get());
      --LoopDepth;
      return;
    case StmtKind::Switch: {
      checkExpr(S->Cond.get(), /*AllowCall=*/false);
      std::unordered_set<int64_t> Seen;
      for (const SwitchCase &Arm : S->Cases) {
        if (!Seen.insert(Arm.Value).second)
          Diags.error(Arm.Loc, "duplicate case value " +
                                   std::to_string(Arm.Value));
        ++LoopDepth; // `break` is permitted inside switch arms.
        for (const StmtPtr &Sub : Arm.Body)
          checkStmt(Sub.get());
        --LoopDepth;
      }
      ++LoopDepth;
      for (const StmtPtr &Sub : S->DefaultBody)
        checkStmt(Sub.get());
      --LoopDepth;
      return;
    }
    case StmtKind::Return:
      // `return f(x);` is sugar for `__retval = f(x); return;`, so a call
      // may form the entire returned expression.
      checkExpr(S->Cond.get(), /*AllowCall=*/true);
      return;
    case StmtKind::Break:
      if (LoopDepth == 0)
        Diags.error(S->Loc, "'break' outside of a loop or switch");
      return;
    case StmtKind::Continue:
      if (LoopDepth == 0)
        Diags.error(S->Loc, "'continue' outside of a loop");
      return;
    case StmtKind::Goto:
      if (!Labels.count(S->Name))
        Diags.error(S->Loc, "goto to undefined label '" + S->Name + "'");
      return;
    case StmtKind::Label:
      checkStmt(S->ThenBody.get());
      return;
    case StmtKind::Block:
      for (const StmtPtr &Sub : S->Body)
        checkStmt(Sub.get());
      return;
    case StmtKind::Empty:
      return;
    }
  }

  const Program &Prog;
  const ProcDeclIndex &Procs;
  const ProcDecl &Proc;
  DiagnosticEngine &Diags;
  std::unordered_map<std::string, VarInfo> Vars;
  std::unordered_set<std::string> Labels;
  unsigned LoopDepth = 0;
};

} // namespace

bool closer::checkProgram(const Program &Prog, DiagnosticEngine &Diags) {
  unsigned ErrorsBefore = Diags.errorCount();

  // Top-level name uniqueness across all namespaces.
  std::unordered_map<std::string, SourceLoc> TopNames;
  auto DeclareTop = [&](const std::string &Name, SourceLoc Loc,
                        const char *What) {
    if (isBuiltinName(Name)) {
      Diags.error(Loc, std::string(What) + " '" + Name +
                           "' collides with a builtin");
      return;
    }
    auto [It, Inserted] = TopNames.emplace(Name, Loc);
    if (!Inserted)
      Diags.error(Loc, std::string("redefinition of '") + Name +
                           "' (previous at " + It->second.str() + ")");
  };

  for (const CommDecl &C : Prog.Comms)
    DeclareTop(C.Name, C.Loc, "communication object");
  for (const GlobalDecl &G : Prog.Globals)
    DeclareTop(G.Name, G.Loc, "global");
  for (const ProcDecl &P : Prog.Procs)
    DeclareTop(P.Name, P.Loc, "procedure");

  ProcDeclIndex Procs;
  Procs.reserve(Prog.Procs.size());
  for (const ProcDecl &P : Prog.Procs)
    Procs.emplace(P.Name, &P);

  std::unordered_set<std::string> ProcessNames;
  for (const ProcessDecl &P : Prog.Processes) {
    if (!ProcessNames.insert(P.Name).second)
      Diags.error(P.Loc, "duplicate process name '" + P.Name + "'");
    const ProcDecl *Callee = findProc(Procs, P.ProcName);
    if (!Callee) {
      Diags.error(P.Loc, "process '" + P.Name +
                             "' references undefined procedure '" +
                             P.ProcName + "'");
      continue;
    }
    if (Callee->Params.size() != P.Args.size())
      Diags.error(P.Loc, "process '" + P.Name + "' passes " +
                             std::to_string(P.Args.size()) +
                             " argument(s) but procedure '" + P.ProcName +
                             "' expects " +
                             std::to_string(Callee->Params.size()));
  }

  for (const ProcDecl &P : Prog.Procs) {
    ProcChecker Checker(Prog, Procs, P, Diags);
    Checker.run();
  }

  return Diags.errorCount() == ErrorsBefore;
}
