//===- AliasAnalysis.cpp - Steensgaard-style may-alias analysis ------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "dataflow/AliasAnalysis.h"

#include <algorithm>
#include <cassert>

using namespace closer;

std::string closer::qualifyVar(const Module &Mod, const ProcCfg &Proc,
                               const std::string &Name) {
  if (Proc.isParam(Name) || Proc.isLocal(Name))
    return Proc.Name + "::" + Name;
  if (Mod.findGlobal(Name))
    return "::" + Name;
  // Unknown names (should not happen on verified modules) are treated as
  // procedure-scoped so they cannot contaminate globals.
  return Proc.Name + "::" + Name;
}

std::string closer::plainName(const std::string &Qual) {
  size_t Pos = Qual.rfind("::");
  assert(Pos != std::string::npos && "not a qualified name");
  return Qual.substr(Pos + 2);
}

std::string closer::ownerProc(const std::string &Qual) {
  size_t Pos = Qual.rfind("::");
  assert(Pos != std::string::npos && "not a qualified name");
  return Qual.substr(0, Pos);
}

//===----------------------------------------------------------------------===//
// Union-find plumbing
//===----------------------------------------------------------------------===//

AliasAnalysis::Cell AliasAnalysis::cellOf(const std::string &Qual) {
  auto It = VarCells.find(Qual);
  if (It != VarCells.end())
    return It->second;
  Cell C = static_cast<Cell>(Parent.size());
  Parent.push_back(C);
  Pointee.push_back(-1);
  CellNames.push_back(Qual);
  VarCells.emplace(Qual, C);
  return C;
}

AliasAnalysis::Cell AliasAnalysis::find(Cell C) const {
  while (Parent[C] != C) {
    Parent[C] = Parent[Parent[C]]; // Path halving.
    C = Parent[C];
  }
  return C;
}

/// Unifies two cells, recursively merging their pointees (Steensgaard's
/// "join" on location types). Returns the representative.
AliasAnalysis::Cell AliasAnalysis::unite(Cell A, Cell B) {
  A = find(A);
  B = find(B);
  if (A == B)
    return A;
  Parent[B] = A;
  Cell PtA = Pointee[A];
  Cell PtB = Pointee[B];
  if (PtA >= 0 && PtB >= 0) {
    Pointee[A] = -2; // Guard against pathological cycles during recursion.
    Pointee[A] = unite(PtA, PtB);
  } else if (PtB >= 0) {
    Pointee[A] = PtB;
  }
  return A;
}

AliasAnalysis::Cell AliasAnalysis::getPointee(Cell C) {
  C = find(C);
  if (Pointee[C] < 0) {
    Cell Anon = static_cast<Cell>(Parent.size());
    Parent.push_back(Anon);
    Pointee.push_back(-1);
    CellNames.push_back("");
    Pointee[C] = Anon;
  }
  return find(Pointee[C]);
}

/// `Target = Source` as a value copy: whatever Source may point to, Target
/// may point to as well (unification makes this symmetric, which is what
/// buys near-linear time at some precision cost).
void AliasAnalysis::joinAsValue(Cell Target, Cell Source) {
  unite(getPointee(Target), getPointee(Source));
}

//===----------------------------------------------------------------------===//
// Constraint generation
//===----------------------------------------------------------------------===//

AliasAnalysis::Cell AliasAnalysis::lvalueCell(const ProcCfg &Proc,
                                              const Expr *Lvalue) {
  switch (Lvalue->Kind) {
  case ExprKind::VarRef:
    return cellOf(qualifyVar(Mod, Proc, Lvalue->Name));
  case ExprKind::ArrayIndex:
    // Arrays are collapsed: a[i] shares the cell of a.
    return cellOf(qualifyVar(Mod, Proc, Lvalue->Name));
  case ExprKind::Deref: {
    // The cell written by *e is the pointee of e's value.
    Cell Tmp = static_cast<Cell>(Parent.size());
    Parent.push_back(Tmp);
    Pointee.push_back(-1);
    CellNames.push_back("");
    flowExprInto(Proc, Tmp, Lvalue->Lhs.get());
    return getPointee(Tmp);
  }
  default:
    assert(false && "invalid lvalue expression");
    return cellOf("::__invalid");
  }
}

/// Records the effect of evaluating \p E into the cell \p Target.
void AliasAnalysis::flowExprInto(const ProcCfg &Proc, Cell Target,
                                 const Expr *E) {
  if (!E)
    return;
  switch (E->Kind) {
  case ExprKind::IntLit:
  case ExprKind::Unknown:
    return;
  case ExprKind::VarRef:
  case ExprKind::ArrayIndex:
    joinAsValue(Target, cellOf(qualifyVar(Mod, Proc, E->Name)));
    if (E->Kind == ExprKind::ArrayIndex)
      flowExprInto(Proc, Target, E->Lhs.get()); // Index arithmetic.
    return;
  case ExprKind::AddrOf: {
    const Expr *Place = E->Lhs.get();
    Cell PlaceCell = cellOf(qualifyVar(Mod, Proc, Place->Name));
    unite(getPointee(Target), PlaceCell);
    if (Place->Kind == ExprKind::ArrayIndex)
      flowExprInto(Proc, Target, Place->Lhs.get());
    return;
  }
  case ExprKind::Deref: {
    Cell Tmp = static_cast<Cell>(Parent.size());
    Parent.push_back(Tmp);
    Pointee.push_back(-1);
    CellNames.push_back("");
    flowExprInto(Proc, Tmp, E->Lhs.get());
    joinAsValue(Target, getPointee(Tmp));
    return;
  }
  case ExprKind::Unary:
    flowExprInto(Proc, Target, E->Lhs.get());
    return;
  case ExprKind::Binary:
    // Conservative: pointer arithmetic flows both operands.
    flowExprInto(Proc, Target, E->Lhs.get());
    flowExprInto(Proc, Target, E->Rhs.get());
    return;
  case ExprKind::Call:
    assert(false && "call expressions are lowered to Call nodes");
    return;
  }
}

static bool exprHasPointerOp(const Expr *E) {
  if (!E)
    return false;
  if (E->Kind == ExprKind::AddrOf || E->Kind == ExprKind::Deref)
    return true;
  if (exprHasPointerOp(E->Lhs.get()) || exprHasPointerOp(E->Rhs.get()))
    return true;
  for (const ExprPtr &Arg : E->Args)
    if (exprHasPointerOp(Arg.get()))
      return true;
  return false;
}

void AliasAnalysis::processProc(const ProcIndex &Procs, const ProcCfg &Proc) {
  bool HasPointers = false;
  for (const CfgNode &Node : Proc.Nodes) {
    HasPointers |= exprHasPointerOp(Node.Target.get());
    HasPointers |= exprHasPointerOp(Node.Value.get());
    for (const ExprPtr &Arg : Node.Args)
      HasPointers |= exprHasPointerOp(Arg.get());

    switch (Node.Kind) {
    case CfgNodeKind::Assign: {
      Cell Target = lvalueCell(Proc, Node.Target.get());
      flowExprInto(Proc, Target, Node.Value.get());
      break;
    }
    case CfgNodeKind::Call: {
      if (Node.Builtin == BuiltinKind::None) {
        const ProcCfg *Callee = Procs.find(Node.Callee);
        if (Callee) {
          // Parameter binding: param := arg (context-insensitive).
          for (size_t I = 0, E = std::min(Node.Args.size(),
                                          Callee->Params.size());
               I != E; ++I) {
            Cell ParamCell =
                cellOf(Callee->Name + "::" + Callee->Params[I]);
            flowExprInto(Proc, ParamCell, Node.Args[I].get());
          }
          // Result binding: target := callee __retval.
          if (Node.Target && Callee->isLocal(retValName())) {
            Cell Target = lvalueCell(Proc, Node.Target.get());
            joinAsValue(Target,
                        cellOf(Callee->Name + "::" + retValName()));
          }
        }
      } else if (Node.Target) {
        // Builtin results are plain data; sema forbids address-of in
        // builtin arguments, so nothing can flow.
        lvalueCell(Proc, Node.Target.get());
      }
      break;
    }
    default:
      break;
    }
  }
  ProcHasPointers[Proc.Name] = HasPointers;
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

AliasAnalysis::AliasAnalysis(const Module &Mod) : Mod(Mod) {
  ProcIndex Procs(Mod);
  for (const ProcCfg &Proc : Mod.Procs)
    processProc(Procs, Proc);
  // Build representative -> named members index.
  for (const auto &[Qual, Cell] : VarCells)
    Members[find(Cell)].push_back(Qual);
  for (auto &[Rep, Names] : Members)
    std::sort(Names.begin(), Names.end());
}

std::vector<std::string>
AliasAnalysis::pointsTo(const ProcCfg &Proc, const std::string &PtrVar) const {
  auto It = VarCells.find(qualifyVar(Mod, Proc, PtrVar));
  if (It == VarCells.end())
    return {};
  Cell Rep = find(It->second);
  Cell Pt = Pointee[Rep];
  if (Pt < 0)
    return {};
  auto MemberIt = Members.find(find(Pt));
  if (MemberIt == Members.end())
    return {};
  return MemberIt->second;
}

std::vector<std::string> AliasAnalysis::derefTargets(const ProcCfg &Proc,
                                                     const Expr *E) const {
  std::vector<std::string> Out;
  if (!E)
    return Out;
  // Collect every variable mentioned in E and union their points-to sets.
  std::vector<const Expr *> Stack = {E};
  while (!Stack.empty()) {
    const Expr *Cur = Stack.back();
    Stack.pop_back();
    if (!Cur)
      continue;
    if (Cur->Kind == ExprKind::VarRef || Cur->Kind == ExprKind::ArrayIndex) {
      std::vector<std::string> Pts = pointsTo(Proc, Cur->Name);
      Out.insert(Out.end(), Pts.begin(), Pts.end());
    }
    Stack.push_back(Cur->Lhs.get());
    Stack.push_back(Cur->Rhs.get());
    for (const ExprPtr &Arg : Cur->Args)
      Stack.push_back(Arg.get());
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

bool AliasAnalysis::procUsesPointers(const ProcCfg &Proc) const {
  auto It = ProcHasPointers.find(Proc.Name);
  return It != ProcHasPointers.end() && It->second;
}
