//===- Pipeline.h - One-call closing pipeline ------------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public facades of the closing side.
///
/// closer::compile() mirrors closer::explore(): source text plus a
/// PipelineOptions in, a CompileResult out — the final module, every stat
/// the executed passes produced, per-pass wall times and the analyses'
/// computed/reused counters, ready to write out as a
/// `closer-close-stats-v1` JSON artifact:
///
/// \code
///   closer::PipelineOptions Opts;
///   Opts.Passes = {"partition", "close", "dedup-toss"};
///   closer::CompileResult R = closer::compile(SourceText, Opts);
///   if (!R.ok()) { report R.Diags; }
///   json::writeJsonFile(Path, closer::compileArtifactToJson(R));
/// \endcode
///
/// With the default options the pipeline parses, checks, lowers, analyzes
/// and closes: explore the closed *R.M with closer::explore(), or persist
/// closer::emitModuleSource(*R.M).
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_CLOSING_PIPELINE_H
#define CLOSER_CLOSING_PIPELINE_H

#include "closing/PassManager.h"
#include "support/Json.h"

#include <memory>
#include <string>

namespace closer {

/// Runs the pass pipeline described by \p Options over \p Source. Never
/// throws; inspect CompileResult::ok() and Diags. Each wholesale transform
/// frees the module it replaces, so only the final module comes back.
CompileResult compile(const std::string &Source,
                      const PipelineOptions &Options = {});

/// Schema tag of the compile-stats artifact.
inline const char *closeStatsJsonSchema() { return "closer-close-stats-v1"; }

/// Renders \p R as a `closer-close-stats-v1` document: effective options,
/// per-pass wall times, the analyses' computed/reused counters and the
/// per-transform stats blocks.
json::Value compileArtifactToJson(const CompileResult &R);

/// Compiles \p Source and returns the (possibly open) module, or nullptr
/// with diagnostics in \p Diags. Verifies the lowered module.
std::unique_ptr<Module> compileAndVerify(const std::string &Source,
                                         DiagnosticEngine &Diags);

} // namespace closer

#endif // CLOSER_CLOSING_PIPELINE_H
