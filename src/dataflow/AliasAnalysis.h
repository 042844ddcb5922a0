//===- AliasAnalysis.h - Steensgaard-style may-alias analysis --*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flow- and context-insensitive unification-based (Steensgaard) may-alias
/// analysis over a whole cfg::Module. The paper's define-use computation
/// "requires a may-alias analysis" (§4, citing [CWZ90, Lan91, Deu94,
/// Ruf95]); this is the conservative solution it plugs in.
///
/// Abstract locations are named variables; arrays are collapsed to a single
/// location. Procedure calls unify parameter and argument cells
/// (context-insensitively), so pointers passed down the call chain resolve
/// to the caller variables they may reference.
///
/// Variables are identified by qualified name: "::g" for a global g and
/// "f::x" for variable x of procedure f.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_DATAFLOW_ALIASANALYSIS_H
#define CLOSER_DATAFLOW_ALIASANALYSIS_H

#include "cfg/Cfg.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace closer {

/// Builds the qualified name of a variable relative to \p Proc: globals get
/// "::name", procedure-scoped variables "proc::name".
std::string qualifyVar(const Module &Mod, const ProcCfg &Proc,
                       const std::string &Name);

/// True if \p Qual names a global ("::g").
inline bool isGlobalQual(const std::string &Qual) {
  return Qual.size() >= 2 && Qual[0] == ':' && Qual[1] == ':';
}

/// Strips the qualifier, returning the plain variable name.
std::string plainName(const std::string &Qual);

/// Returns the owning procedure name of \p Qual, or "" for globals.
std::string ownerProc(const std::string &Qual);

class AliasAnalysis {
public:
  /// Runs the analysis over \p Mod.
  explicit AliasAnalysis(const Module &Mod);

  /// Qualified names of the variables `*p` may reference when \p PtrVar is
  /// evaluated inside \p Proc. Empty when \p PtrVar provably never holds an
  /// address.
  std::vector<std::string> pointsTo(const ProcCfg &Proc,
                                    const std::string &PtrVar) const;

  /// Union of pointsTo over every variable referenced by \p E (conservative
  /// dereference targets of an arbitrary pointer expression in \p Proc).
  std::vector<std::string> derefTargets(const ProcCfg &Proc,
                                        const Expr *E) const;

  /// True when \p Proc contains no pointer operations at all — lets clients
  /// skip alias queries entirely on pointer-free code.
  bool procUsesPointers(const ProcCfg &Proc) const;

private:
  using Cell = int;

  Cell cellOf(const std::string &Qual);
  Cell find(Cell C) const;
  Cell unite(Cell A, Cell B);
  Cell getPointee(Cell C);
  void joinAsValue(Cell Target, Cell Source);
  void flowExprInto(const ProcCfg &Proc, Cell Target, const Expr *E);
  Cell lvalueCell(const ProcCfg &Proc, const Expr *Lvalue);
  void processProc(const ProcIndex &Procs, const ProcCfg &Proc);

  const Module &Mod;
  std::unordered_map<std::string, Cell> VarCells;
  std::vector<std::string> CellNames; ///< "" for anonymous cells.
  mutable std::vector<Cell> Parent;
  std::vector<Cell> Pointee; ///< Per representative; -1 when absent.
  std::unordered_map<std::string, bool> ProcHasPointers;
  /// Representative -> member variable names (built after solving).
  std::unordered_map<Cell, std::vector<std::string>> Members;
};

} // namespace closer

#endif // CLOSER_DATAFLOW_ALIASANALYSIS_H
