//===- CfgBuilder.h - AST to control-flow graph lowering -------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a semantically-checked MiniC Program into a cfg::Module. Lowering
/// decisions:
///
///  * all local declarations are hoisted into the frame layout; their
///    initializers become Assign nodes in place;
///  * `return e` becomes `__retval = e; return` so that Return nodes use no
///    variables (the paper's assumption on termination statements);
///  * switch arms do not fall through (each arm implicitly breaks);
///  * a missing `for` condition is the constant 1;
///  * unreachable nodes are pruned after construction; the entry Start node
///    is always node 0.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_CFG_CFGBUILDER_H
#define CLOSER_CFG_CFGBUILDER_H

#include "cfg/Cfg.h"
#include "support/Diagnostics.h"

#include <memory>

namespace closer {

/// Lowers \p Prog (which must have passed checkProgram) to CFG form,
/// consuming its procedure bodies: each ProcDecl::Body is reset once its
/// procedure is lowered (the CFG nodes own clones of its expressions), so
/// lowering holds at most one procedure twice. The declarations stay.
/// Returns nullptr and reports via \p Diags on internal lowering failures.
std::unique_ptr<Module> buildModule(Program &Prog, DiagnosticEngine &Diags);

/// Convenience: parse + sema + lower in one call. Returns nullptr on any
/// error (details in \p Diags).
std::unique_ptr<Module> compileMiniC(const std::string &Source,
                                     DiagnosticEngine &Diags);

} // namespace closer

#endif // CLOSER_CFG_CFGBUILDER_H
