//===- Ast.h - MiniC abstract syntax ---------------------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax for MiniC, the imperative source language the closing
/// transformation operates on. The shape follows the paper's §4 programming
/// language assumptions: programs are collections of procedures made of
/// assignment statements, conditional statements (if/switch/while/for),
/// procedure-call statements and termination statements, over variables that
/// include identifiers, pointers and array elements.
///
/// Expressions and statements are single structs discriminated by a kind
/// enum (no RTTI). Ownership is by unique_ptr; Expr supports deep clone()
/// because the control-flow graph IR owns copies of expression trees.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_LANG_AST_H
#define CLOSER_LANG_AST_H

#include "support/SourceLoc.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace closer {

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind {
  IntLit,     ///< 42 or an interned atom like 'even'
  Unknown,    ///< The distinguished placeholder the closing transformation
              ///< substitutes for an eliminated environment-dependent value
              ///< (spelled `unknown` in source). Evaluates to the runtime's
              ///< unknown value; using it in arithmetic or branching is a
              ///< checked error.
  VarRef,     ///< x
  ArrayIndex, ///< a[e]
  Unary,      ///< -e, !e
  Binary,     ///< e1 op e2
  AddrOf,     ///< &x or &a[e]
  Deref,      ///< *e
  Call,       ///< f(e...) — user procedure or builtin; restricted by sema to
              ///< statement position or the whole right-hand side of an
              ///< assignment, matching the paper's statement taxonomy
};

enum class UnaryOp { Neg, Not };

enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And, ///< Logical; MiniC evaluates both sides (no short-circuit) so that
       ///< conditional statements never hide control flow inside expressions.
  Or,
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind Kind;
  SourceLoc Loc;

  int64_t IntValue = 0; ///< IntLit.
  std::string Name;     ///< VarRef / ArrayIndex array / Call callee.
  UnaryOp UOp = UnaryOp::Neg;
  BinaryOp BOp = BinaryOp::Add;
  ExprPtr Lhs; ///< Unary operand, ArrayIndex index, AddrOf place, Deref
               ///< pointer, Binary left.
  ExprPtr Rhs; ///< Binary right.
  std::vector<ExprPtr> Args; ///< Call arguments.

  explicit Expr(ExprKind Kind, SourceLoc Loc = SourceLoc())
      : Kind(Kind), Loc(Loc) {}

  /// Deep copy (the CFG IR owns clones of AST expression trees).
  ExprPtr clone() const;

  // Factories.
  static ExprPtr unknown(SourceLoc Loc = SourceLoc());
  static ExprPtr intLit(int64_t Value, SourceLoc Loc = SourceLoc());
  static ExprPtr varRef(std::string Name, SourceLoc Loc = SourceLoc());
  static ExprPtr arrayIndex(std::string Name, ExprPtr Index,
                            SourceLoc Loc = SourceLoc());
  static ExprPtr unary(UnaryOp Op, ExprPtr Sub, SourceLoc Loc = SourceLoc());
  static ExprPtr binary(BinaryOp Op, ExprPtr Lhs, ExprPtr Rhs,
                        SourceLoc Loc = SourceLoc());
  static ExprPtr addrOf(ExprPtr Place, SourceLoc Loc = SourceLoc());
  static ExprPtr deref(ExprPtr Pointer, SourceLoc Loc = SourceLoc());
  static ExprPtr call(std::string Callee, std::vector<ExprPtr> Args,
                      SourceLoc Loc = SourceLoc());

  /// Structural equality (used by tests comparing transformed programs).
  static bool equals(const Expr *A, const Expr *B);
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind {
  VarDecl,  ///< var x; / var x = e; / var a[N];
  Assign,   ///< lvalue = expr; (expr may be a Call)
  If,       ///< if (c) A else B
  While,    ///< while (c) A
  For,      ///< for (InitStmt; c; StepStmt) A
  Switch,   ///< switch (e) { case k: ...; default: ... }
  ExprCall, ///< f(args);  — call in statement position
  Return,   ///< return; / return e;
  Break,
  Continue,
  Goto,  ///< goto L;
  Label, ///< L: stmt
  Block, ///< { ... }
  Empty, ///< ;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// One `case k:` arm of a switch.
struct SwitchCase {
  int64_t Value = 0;
  SourceLoc Loc;
  std::vector<StmtPtr> Body;
};

struct Stmt {
  StmtKind Kind;
  SourceLoc Loc;

  std::string Name;       ///< VarDecl/Goto/Label name.
  int64_t ArraySize = -1; ///< VarDecl: >= 0 when declaring an array.
  ExprPtr Cond;           ///< If/While/For/Switch condition or scrutinee;
                          ///< Return value; VarDecl initializer.
  ExprPtr Target;         ///< Assign lvalue.
  ExprPtr Value;          ///< Assign RHS; ExprCall call expression.
  StmtPtr ThenBody;       ///< If then; While/For body; Label inner statement.
  StmtPtr ElseBody;       ///< If else.
  StmtPtr InitStmt;       ///< For initializer.
  StmtPtr StepStmt;       ///< For step.
  std::vector<StmtPtr> Body;        ///< Block statements.
  std::vector<SwitchCase> Cases;    ///< Switch arms.
  bool HasDefault = false;          ///< Switch has a default arm.
  std::vector<StmtPtr> DefaultBody; ///< Switch default arm.

  explicit Stmt(StmtKind Kind, SourceLoc Loc = SourceLoc())
      : Kind(Kind), Loc(Loc) {}
};

//===----------------------------------------------------------------------===//
// Top-level declarations
//===----------------------------------------------------------------------===//

/// The three communication-object kinds of the paper's framework (§2):
/// FIFO buffers, semaphores, and shared variables. Enabledness of operations
/// depends only on the operation history, never on stored values.
enum class CommKind {
  Channel,   ///< FIFO buffer; Param = capacity (>= 1).
  Semaphore, ///< Counting semaphore; Param = initial count (>= 0).
  SharedVar, ///< Shared variable; Param = initial value.
};

struct CommDecl {
  CommKind Kind;
  std::string Name;
  int64_t Param = 0;
  SourceLoc Loc;
};

/// A per-process global variable (processes do not share memory; each
/// process owns a private copy, as with separate UNIX address spaces).
struct GlobalDecl {
  std::string Name;
  int64_t ArraySize = -1; ///< >= 0 when this is an array.
  int64_t Init = 0;
  SourceLoc Loc;
};

struct ParamDecl {
  std::string Name;
  SourceLoc Loc;
};

struct ProcDecl {
  std::string Name;
  std::vector<ParamDecl> Params;
  StmtPtr Body; ///< Always a Block.
  SourceLoc Loc;
};

/// An actual argument of a `process` instantiation: either a compile-time
/// constant or the keyword `env`, declaring that the environment provides
/// the value (this is how a program is "open" at the top level).
struct ProcessArg {
  bool IsEnv = false;
  int64_t Value = 0;
  SourceLoc Loc;
};

struct ProcessDecl {
  std::string Name;
  std::string ProcName;
  std::vector<ProcessArg> Args;
  SourceLoc Loc;
};

/// A parsed MiniC compilation unit.
struct Program {
  std::vector<CommDecl> Comms;
  std::vector<GlobalDecl> Globals;
  std::vector<ProcDecl> Procs;
  std::vector<ProcessDecl> Processes;
};

} // namespace closer

#endif // CLOSER_LANG_AST_H
