//===- CfgVerifier.h - Structural CFG invariants ---------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the structural invariants every cfg::Module must satisfy — both
/// freshly lowered modules and modules produced by the closing
/// transformation:
///
///  * node 0 is the unique Start node; arcs target valid nodes;
///  * per-node arc shape: Branch has exactly {IfTrue, IfFalse}; Switch has
///    distinct CaseEq arcs plus exactly one CaseDefault; TossBranch covers
///    TossEq 0..TossBound exactly once each; Start/Assign/Call have at most
///    one Always arc (zero is legal only after closing drops successors);
///    Return has none — so every node's arc labels are mutually exclusive
///    and exhaustive or deliberately empty, the paper's §4 assumption;
///  * Call nodes reference existing procedures/builtins with correct arity
///    and result-ness; object arguments name objects of the right kind;
///  * every referenced variable is a parameter, local or global;
///  * the globals fit in one process's storage (MaxProcessCells).
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_CFG_CFGVERIFIER_H
#define CLOSER_CFG_CFGVERIFIER_H

#include "cfg/Cfg.h"
#include "support/Diagnostics.h"

namespace closer {

/// Verifies one procedure against \p Mod. Returns true when well-formed.
bool verifyProc(const Module &Mod, const ProcCfg &Proc,
                DiagnosticEngine &Diags);

/// Verifies the whole module (all procedures plus process bindings).
bool verifyModule(const Module &Mod, DiagnosticEngine &Diags);

} // namespace closer

#endif // CLOSER_CFG_CFGVERIFIER_H
