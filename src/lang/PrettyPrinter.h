//===- PrettyPrinter.h - MiniC expression printing -------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders MiniC expressions back to source text, for the CFG printers
/// (cfg/CfgPrinter.h), whose emitModuleSource() is the one source emitter;
/// RoundTripTest covers that emit -> reparse round trip. Atom-valued
/// integer literals are rendered back in quoted form when the atom table
/// knows their spelling.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_LANG_PRETTYPRINTER_H
#define CLOSER_LANG_PRETTYPRINTER_H

#include "lang/Ast.h"

#include <string>

namespace closer {

/// Renders an expression as source text, parenthesized as needed.
std::string printExpr(const Expr *E);

} // namespace closer

#endif // CLOSER_LANG_PRETTYPRINTER_H
