//===- Diagnostics.h - Error and warning collection ------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A diagnostic engine shared by the lexer, parser, semantic analysis and the
/// closing transformation. The library never throws; fallible phases report
/// through a DiagnosticEngine and return a failure indication, and callers
/// inspect the accumulated diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_SUPPORT_DIAGNOSTICS_H
#define CLOSER_SUPPORT_DIAGNOSTICS_H

#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace closer {

/// Severity of a single diagnostic.
enum class DiagKind {
  Error,
  Warning,
  Note,
};

/// One reported problem: severity, optional location, message text.
struct Diagnostic {
  DiagKind Kind;
  SourceLoc Loc;
  std::string Message;

  /// Renders "error: 3:7: message" style text (no trailing newline).
  std::string str() const;
};

/// Accumulates diagnostics across compilation phases.
///
/// Phases append with error()/warning()/note(); drivers check hasErrors()
/// after each phase and stop on failure.
class DiagnosticEngine {
public:
  void error(SourceLoc Loc, std::string Message) {
    Diags.push_back({DiagKind::Error, Loc, std::move(Message)});
    ++NumErrors;
  }
  void warning(SourceLoc Loc, std::string Message) {
    Diags.push_back({DiagKind::Warning, Loc, std::move(Message)});
  }
  void note(SourceLoc Loc, std::string Message) {
    Diags.push_back({DiagKind::Note, Loc, std::move(Message)});
  }

  /// Appends every diagnostic of \p Other, in order.
  void append(const DiagnosticEngine &Other) {
    Diags.insert(Diags.end(), Other.Diags.begin(), Other.Diags.end());
    NumErrors += Other.NumErrors;
  }

  bool hasErrors() const { return NumErrors != 0; }
  unsigned errorCount() const { return NumErrors; }
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// All diagnostics rendered one per line; empty string when clean.
  std::string str() const;

  void clear() {
    Diags.clear();
    NumErrors = 0;
  }

private:
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace closer

#endif // CLOSER_SUPPORT_DIAGNOSTICS_H
