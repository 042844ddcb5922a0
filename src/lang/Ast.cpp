//===- Ast.cpp - MiniC abstract syntax ------------------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "lang/Ast.h"

#include <cassert>

using namespace closer;

ExprPtr Expr::clone() const {
  auto Copy = std::make_unique<Expr>(Kind, Loc);
  Copy->IntValue = IntValue;
  Copy->Name = Name;
  Copy->UOp = UOp;
  Copy->BOp = BOp;
  if (Lhs)
    Copy->Lhs = Lhs->clone();
  if (Rhs)
    Copy->Rhs = Rhs->clone();
  Copy->Args.reserve(Args.size());
  for (const ExprPtr &Arg : Args)
    Copy->Args.push_back(Arg->clone());
  return Copy;
}

ExprPtr Expr::unknown(SourceLoc Loc) {
  return std::make_unique<Expr>(ExprKind::Unknown, Loc);
}

ExprPtr Expr::intLit(int64_t Value, SourceLoc Loc) {
  auto E = std::make_unique<Expr>(ExprKind::IntLit, Loc);
  E->IntValue = Value;
  return E;
}

ExprPtr Expr::varRef(std::string Name, SourceLoc Loc) {
  auto E = std::make_unique<Expr>(ExprKind::VarRef, Loc);
  E->Name = std::move(Name);
  return E;
}

ExprPtr Expr::arrayIndex(std::string Name, ExprPtr Index, SourceLoc Loc) {
  auto E = std::make_unique<Expr>(ExprKind::ArrayIndex, Loc);
  E->Name = std::move(Name);
  E->Lhs = std::move(Index);
  return E;
}

ExprPtr Expr::unary(UnaryOp Op, ExprPtr Sub, SourceLoc Loc) {
  auto E = std::make_unique<Expr>(ExprKind::Unary, Loc);
  E->UOp = Op;
  E->Lhs = std::move(Sub);
  return E;
}

ExprPtr Expr::binary(BinaryOp Op, ExprPtr Lhs, ExprPtr Rhs, SourceLoc Loc) {
  auto E = std::make_unique<Expr>(ExprKind::Binary, Loc);
  E->BOp = Op;
  E->Lhs = std::move(Lhs);
  E->Rhs = std::move(Rhs);
  return E;
}

ExprPtr Expr::addrOf(ExprPtr Place, SourceLoc Loc) {
  assert(Place && (Place->Kind == ExprKind::VarRef ||
                   Place->Kind == ExprKind::ArrayIndex) &&
         "address-of requires a variable or array element");
  auto E = std::make_unique<Expr>(ExprKind::AddrOf, Loc);
  E->Lhs = std::move(Place);
  return E;
}

ExprPtr Expr::deref(ExprPtr Pointer, SourceLoc Loc) {
  auto E = std::make_unique<Expr>(ExprKind::Deref, Loc);
  E->Lhs = std::move(Pointer);
  return E;
}

ExprPtr Expr::call(std::string Callee, std::vector<ExprPtr> Args,
                   SourceLoc Loc) {
  auto E = std::make_unique<Expr>(ExprKind::Call, Loc);
  E->Name = std::move(Callee);
  E->Args = std::move(Args);
  return E;
}

bool Expr::equals(const Expr *A, const Expr *B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  if (A->Kind != B->Kind)
    return false;
  switch (A->Kind) {
  case ExprKind::IntLit:
    return A->IntValue == B->IntValue;
  case ExprKind::Unknown:
    return true;
  case ExprKind::VarRef:
    return A->Name == B->Name;
  case ExprKind::ArrayIndex:
    return A->Name == B->Name && equals(A->Lhs.get(), B->Lhs.get());
  case ExprKind::Unary:
    return A->UOp == B->UOp && equals(A->Lhs.get(), B->Lhs.get());
  case ExprKind::Binary:
    return A->BOp == B->BOp && equals(A->Lhs.get(), B->Lhs.get()) &&
           equals(A->Rhs.get(), B->Rhs.get());
  case ExprKind::AddrOf:
  case ExprKind::Deref:
    return equals(A->Lhs.get(), B->Lhs.get());
  case ExprKind::Call: {
    if (A->Name != B->Name || A->Args.size() != B->Args.size())
      return false;
    for (size_t I = 0, E = A->Args.size(); I != E; ++I)
      if (!equals(A->Args[I].get(), B->Args[I].get()))
        return false;
    return true;
  }
  }
  return false;
}
