//===- Cfg.h - Control-flow graph IR ---------------------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The control-flow-graph representation of MiniC procedures, matching the
/// paper's §4 model: each procedure is a graph G_j = (N_j, A_j) whose nodes
/// are statements and whose arcs are labeled with mutually exclusive,
/// exhaustive boolean guards. This IR is what the closing transformation
/// consumes and produces, and what the runtime executes; it is therefore
/// fully self-contained (it owns clones of all expression trees).
///
/// Node kinds: Start (defines/uses nothing), Assign, Branch (if), Switch,
/// Call (user procedures and builtins, including all visible operations),
/// Return (termination), and TossBranch — the nondeterministic conditional
/// "testing the value of VS_toss(k)" that Step 4 of the paper's algorithm
/// introduces.
///
/// Like the AST's, the records are packed: one-byte kinds next to each
/// other and interned callee names, so a node fits 96 bytes and an arc 16.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_CFG_CFG_H
#define CLOSER_CFG_CFG_H

#include "lang/Ast.h"
#include "lang/Builtins.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace closer {

/// Index of a node within its procedure's node vector.
using NodeId = uint32_t;
constexpr NodeId InvalidNode = ~static_cast<NodeId>(0);

enum class CfgNodeKind : uint8_t {
  Start,      ///< Unique procedure entry; uses and defines nothing.
  Assign,     ///< Target = Value (Value is a non-call expression).
  Branch,     ///< Two-way conditional on Value.
  Switch,     ///< Multi-way conditional on Value.
  Call,       ///< Procedure or builtin call; optional result Target.
  TossBranch, ///< Conditional on a fresh VS_toss(TossBound) outcome.
  Return,     ///< Termination statement; no out-arcs, uses nothing
              ///< (return values are lowered to an assignment of the
              ///< distinguished local __retval before the Return node).
};

enum class ArcKind : uint8_t {
  Always,      ///< Unconditional fallthrough.
  IfTrue,      ///< Branch condition nonzero.
  IfFalse,     ///< Branch condition zero.
  CaseEq,      ///< Switch scrutinee equals Value.
  CaseDefault, ///< Switch scrutinee matches no CaseEq arc.
  TossEq,      ///< TossBranch outcome equals Value.
};

/// One labeled control-flow arc, built as {Kind, Value, Target}. The
/// fields are stored kind and target first so the arc packs into 16 bytes.
struct CfgArc {
  ArcKind Kind = ArcKind::Always;
  NodeId Target = InvalidNode;
  int64_t Value = 0; ///< CaseEq / TossEq payload.

  constexpr CfgArc() = default;
  constexpr CfgArc(ArcKind Kind, int64_t Value, NodeId Target)
      : Kind(Kind), Target(Target), Value(Value) {}
};

struct CfgNode {
  CfgNodeKind Kind = CfgNodeKind::Start;
  SourceLoc Loc;
  BuiltinKind Builtin = BuiltinKind::None; ///< Call: builtin classifier.

  ExprPtr Target; ///< Assign / Call result lvalue (VarRef, ArrayIndex or
                  ///< Deref expression), or null.
  ExprPtr Value;  ///< Assign RHS; Branch condition; Switch scrutinee.

  Symbol Callee;             ///< Call: procedure name.
  std::vector<ExprPtr> Args; ///< Call arguments.

  int64_t TossBound = 0; ///< TossBranch: outcomes range over [0, TossBound].

  std::vector<CfgArc> Arcs;

  CfgNode() = default;
  CfgNode(CfgNode &&) = default;
  CfgNode &operator=(CfgNode &&) = default;

  /// Deep copy (expression trees cloned).
  CfgNode clone() const;

  /// True for Call nodes whose operation is visible in the paper's sense
  /// (communication-object builtins and VS_assert). Calls to user
  /// procedures are not themselves visible operations.
  bool isVisibleOp() const {
    return Kind == CfgNodeKind::Call && Builtin != BuiltinKind::None &&
           builtinInfo(Builtin).IsVisible;
  }
};

// A module holds one node per statement; a new field past 96 bytes gives
// back the memory the packing saved.
static_assert(sizeof(CfgNode) <= 96, "CfgNode outgrew its packed layout");

/// A local variable slot of a procedure frame.
struct LocalVar {
  std::string Name;
  int64_t ArraySize = -1; ///< >= 0 for arrays.
};

/// The most storage cells one process may hold: its globals plus every
/// frame on its stack, one cell per scalar and one per array element.
/// verifyModule() rejects a module whose globals alone exceed it, and both
/// engines fail a frame push that would cross it (StackOverflow), so every
/// cell offset and frame base fits the runtime's 32-bit fields.
inline constexpr size_t MaxProcessCells = INT32_MAX;

/// \p Cells plus the cells of a variable of \p ArraySize (-1: a scalar),
/// saturated at MaxProcessCells + 1 — a size no process can hold — so sums
/// of astronomic array sizes never wrap. \p Cells must already be
/// saturated.
inline size_t addCells(size_t Cells, int64_t ArraySize) {
  size_t N = ArraySize >= 0 ? static_cast<size_t>(ArraySize) : 1;
  return N > MaxProcessCells - std::min(Cells, MaxProcessCells)
             ? MaxProcessCells + 1
             : Cells + N;
}

/// A procedure lowered to its control-flow graph.
struct ProcCfg {
  std::string Name;
  std::vector<std::string> Params;
  std::vector<LocalVar> Locals; ///< Hoisted declarations, in source order.
  std::vector<CfgNode> Nodes;   ///< Nodes[Entry] is the Start node.
  NodeId Entry = 0;

  const CfgNode &node(NodeId Id) const { return Nodes[Id]; }
  CfgNode &node(NodeId Id) { return Nodes[Id]; }
  size_t size() const { return Nodes.size(); }

  /// True when \p Name is a parameter of this procedure.
  bool isParam(const std::string &VarName) const;
  /// True when \p Name is a declared local (including __retval).
  bool isLocal(const std::string &VarName) const;
  /// Returns the index of parameter \p VarName or -1.
  int paramIndex(const std::string &VarName) const;

  ProcCfg clone() const;
};

/// A whole program lowered to CFG form: the unit the closing transformation
/// maps to a new Module and the unit the runtime executes.
struct Module {
  std::vector<CommDecl> Comms;
  std::vector<GlobalDecl> Globals;
  std::vector<ProcCfg> Procs;
  std::vector<ProcessDecl> Processes;

  const ProcCfg *findProc(const std::string &Name) const;
  ProcCfg *findProc(const std::string &Name);
  int procIndex(const std::string &Name) const;
  const CommDecl *findComm(const std::string &Name) const;
  int commIndex(const std::string &Name) const;
  const GlobalDecl *findGlobal(const std::string &Name) const;

  /// Total node count across all procedures (the size measure used by the
  /// linearity experiment E4).
  size_t totalNodes() const;

  Module clone() const;
};

/// Procedure name -> index in Module::Procs, for passes that resolve every
/// call site: Module::findProc and procIndex scan the procedure list, which
/// turns a pass quadratic on many-procedure modules. Build one per pass;
/// it borrows the module's names, so the procedure list must not change
/// while the index is in use. Duplicate names resolve to the first, as
/// findProc does.
class ProcIndex {
public:
  explicit ProcIndex(const Module &Mod);

  /// Index of procedure \p Name in Mod.Procs, or -1.
  int lookup(std::string_view Name) const {
    auto It = Index.find(Name);
    return It == Index.end() ? -1 : It->second;
  }

  /// Procedure \p Name, or null.
  const ProcCfg *find(std::string_view Name) const {
    int I = lookup(Name);
    return I < 0 ? nullptr : &Mod.Procs[static_cast<size_t>(I)];
  }

private:
  const Module &Mod;
  std::unordered_map<std::string_view, int> Index;
};

/// Name of the distinguished local carrying a procedure's return value.
inline const char *retValName() { return "__retval"; }

/// The first module-wide node index of each procedure (parallel to
/// Mod.Procs): node N of procedure P is node Bases[P] + N of the module,
/// numbered procedure by procedure. Flat per-node tables (the runtime's
/// visible-op table, footprint words, coverage bitmaps) use this numbering.
inline std::vector<uint32_t> nodeBases(const Module &Mod) {
  std::vector<uint32_t> Bases;
  Bases.reserve(Mod.Procs.size());
  uint32_t Next = 0;
  for (const ProcCfg &P : Mod.Procs) {
    Bases.push_back(Next);
    Next += static_cast<uint32_t>(P.Nodes.size());
  }
  return Bases;
}

/// Removes nodes unreachable from the entry and compacts node ids. The
/// entry must be node 0 and remains node 0. All arcs must be bound.
void pruneUnreachableNodes(ProcCfg &Proc);

} // namespace closer

#endif // CLOSER_CFG_CFG_H
