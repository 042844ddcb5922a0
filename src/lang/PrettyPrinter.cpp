//===- PrettyPrinter.cpp - MiniC expression printing ----------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "lang/PrettyPrinter.h"

#include "lang/Lexer.h"

#include <cassert>
#include <string>

using namespace closer;

namespace {

/// Binding strength used to decide parenthesization; higher binds tighter.
int precedence(const Expr *E) {
  switch (E->Kind) {
  case ExprKind::Binary:
    switch (E->BOp) {
    case BinaryOp::Or:
      return 1;
    case BinaryOp::And:
      return 2;
    case BinaryOp::Eq:
    case BinaryOp::Ne:
      return 3;
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      return 4;
    case BinaryOp::Add:
    case BinaryOp::Sub:
      return 5;
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Mod:
      return 6;
    }
    return 0;
  case ExprKind::Unary:
  case ExprKind::Deref:
  case ExprKind::AddrOf:
    return 7;
  default:
    return 8; // Primaries never need parens.
  }
}

const char *binaryOpText(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Mod:
    return "%";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::And:
    return "&&";
  case BinaryOp::Or:
    return "||";
  }
  return "?";
}

std::string printSub(const Expr *Parent, const Expr *Child) {
  std::string Text = printExpr(Child);
  if (precedence(Child) < precedence(Parent))
    return "(" + Text + ")";
  return Text;
}

std::string printIntLit(int64_t Value) {
  const AtomTable &Atoms = AtomTable::global();
  if (!Atoms.isAtom(Value))
    return std::to_string(Value);
  std::string Out = "'";
  Out += Atoms.spelling(Value);
  Out += '\'';
  return Out;
}

} // namespace

std::string closer::printExpr(const Expr *E) {
  assert(E && "printing a null expression");
  switch (E->Kind) {
  case ExprKind::IntLit:
    return printIntLit(E->IntValue);
  case ExprKind::Unknown:
    return "unknown";
  case ExprKind::VarRef:
    return E->Name;
  case ExprKind::ArrayIndex:
    return E->Name + "[" + printExpr(E->Lhs.get()) + "]";
  case ExprKind::Unary:
    return std::string(E->UOp == UnaryOp::Neg ? "-" : "!") +
           printSub(E, E->Lhs.get());
  case ExprKind::Deref: {
    std::string Out = "*";
    Out += printSub(E, E->Lhs.get());
    return Out;
  }
  case ExprKind::AddrOf: {
    std::string Out = "&";
    Out += printExpr(E->Lhs.get());
    return Out;
  }
  case ExprKind::Binary: {
    std::string Lhs = printSub(E, E->Lhs.get());
    std::string Rhs = printExpr(E->Rhs.get());
    // Right operand needs parens at equal precedence (left associativity).
    if (precedence(E->Rhs.get()) <= precedence(E))
      Rhs = "(" + Rhs + ")";
    return Lhs + " " + binaryOpText(E->BOp) + " " + Rhs;
  }
  case ExprKind::Call: {
    std::string Out = E->Name + "(";
    for (size_t I = 0, N = E->Args.size(); I != N; ++I) {
      if (I)
        Out += ", ";
      Out += printExpr(E->Args[I].get());
    }
    return Out + ")";
  }
  }
  return "<bad-expr>";
}
