//===- PassManager.h - Pass pipeline for the closing side ------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An LLVM-style pass manager over which the whole closing side is
/// expressed: the frontend (parse / sema / lower), the CFG verifier, the
/// Figure 1 closing transformation, the §7 input-domain partitioning, the
/// redundant-toss elimination, the §3 naive baseline and the interface
/// inventory are all uniform passes run by one PassPipeline against one
/// CompilationContext.
///
/// The context owns the module *and* an AnalysisManager, so a pipeline such
/// as `partition → close` shares cached alias / define-use / taint results
/// across passes instead of recomputing them per entry point.
///
/// Contracts passes rely on:
///
///  * Transform passes that touch only some procedures mutate
///    `Module::Procs[i]` in place and call
///    `AnalysisManager::invalidateProc`; the Procs vector is never resized,
///    so cached per-procedure analyses of untouched procedures stay valid.
///  * Transform passes that rebuild the module wholesale (close,
///    naive-close) go through `CompilationContext::replaceModule`, which
///    rebinds the analysis manager, then frees the old module.
///  * A pass returning false aborts the pipeline; it must have explained
///    why through Ctx.Diags.
///
/// Most callers want the closer::compile() facade in closing/Pipeline.h
/// rather than this header; PassManager.h is for composing custom
/// pipelines and for tests that poke individual passes.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_CLOSING_PASSMANAGER_H
#define CLOSER_CLOSING_PASSMANAGER_H

#include "closing/ClosingTransform.h"
#include "closing/DomainPartition.h"
#include "closing/InterfaceReport.h"
#include "dataflow/AnalysisManager.h"
#include "envgen/NaiveClose.h"
#include "support/Diagnostics.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace closer {

struct Program;

namespace vm {
struct CompiledModule;
} // namespace vm

/// Options steering one pipeline run. The per-transform option structs are
/// reused verbatim from the standalone entry points.
struct PipelineOptions {
  /// Module-pass tail of the pipeline (run after parse/sema/lower/verify).
  /// Empty means the default pipeline, {"close"}. A list starting with
  /// "parse" is taken as the complete pipeline, frontend included.
  std::vector<std::string> Passes;

  /// Run the CFG verifier after every pass (once a module exists) and
  /// abort naming the offending pass on failure.
  bool VerifyEach = false;

  /// Capture emitModuleSource() after each run of the named pass.
  std::string PrintAfter;

  ClosingOptions Closing;
  PartitionOptions Partition;
  NaiveCloseOptions Naive;

  /// The pipeline this run will actually execute: Passes with the frontend
  /// prefix (parse, sema, lower, verify) prepended unless already explicit,
  /// and the default tail substituted when Passes is empty.
  std::vector<std::string> expandedPasses() const;

  /// Structural validation of the expanded pipeline (unknown pass names,
  /// frontend passes out of position, PrintAfter naming an absent pass,
  /// nonsensical option values). Errors in the result abort compile().
  std::vector<Diagnostic> validate() const;
};

/// Wall time of one executed pass.
struct PassStat {
  std::string Name;
  double WallSeconds = 0;
};

/// Everything one pipeline run produces: the result closer::compile()
/// returns, and the slots the passes fill in (CompilationContext derives
/// from it).
struct CompileResult {
  DiagnosticEngine Diags;
  /// The current module: set by the lower pass, replaced by wholesale
  /// transforms; after compile(), the final module, or null when the
  /// pipeline aborted.
  std::unique_ptr<Module> M;

  // Stats from whichever passes ran (zero-initialized otherwise).
  ClosingStats Closing;
  PartitionStats Partition;
  NaiveCloseStats Naive;
  std::optional<InterfaceReport> Interface;
  /// Bytecode compiled by the optional lower-bytecode pass (null when the
  /// pass did not run). The pass snapshots the module at its position in
  /// the pipeline, so run it after the transforms whose output should be
  /// executed. Feed into SearchOptions::VmCode to explore with the VM
  /// without recompiling.
  std::shared_ptr<const vm::CompiledModule> Bytecode;

  /// Wall time of every executed pass, in execution order.
  std::vector<PassStat> Passes;
  /// Computed/Reused counters of the cached analyses.
  AnalysisStats Analyses;
  /// (pass name, module source) captures from PrintAfter.
  std::vector<std::pair<std::string, std::string>> Printed;

  /// Options as actually executed (compile() expands Passes to the full
  /// pipeline); the passes read their knobs here.
  PipelineOptions EffectiveOptions;
  double WallSeconds = 0;

  bool ok() const { return M != nullptr && !Diags.hasErrors(); }
};

/// All state a pipeline run threads through its passes: the result slots,
/// plus what only the passes need.
class CompilationContext : public CompileResult {
public:
  CompilationContext(std::string SourceText, PipelineOptions Options);
  ~CompilationContext();

  std::string Source;
  /// Set by the parse pass; released by the lower pass once the module
  /// exists.
  std::unique_ptr<Program> AST;
  /// Created by the lower pass, bound to *M from then on.
  std::unique_ptr<AnalysisManager> AM;
  /// True while *M is the close pass's output, edited since only by
  /// dedup-toss, which then keeps Closing.NodesAfter and
  /// Closing.TossNodesInserted describing *M. Any other pass that builds,
  /// replaces or edits the module clears it.
  bool ClosingDescribesM = false;

  /// Installs \p NewM as the context's module: rebinds the analysis
  /// manager first (cached analyses reference the old module), then frees
  /// the old module.
  void replaceModule(std::unique_ptr<Module> NewM);
};

/// One unit of work over a CompilationContext.
class Pass {
public:
  virtual ~Pass();

  /// Stable name used in --passes lists, --print-after, stats and
  /// verify-each diagnostics.
  virtual const char *name() const = 0;

  /// Runs the pass. Returning false aborts the pipeline; the pass must
  /// have reported the reason through Ctx.Diags.
  virtual bool run(CompilationContext &Ctx) = 0;
};

/// Runs a sequence of passes, recording per-pass wall time in Ctx.Passes,
/// optionally verifying the module between passes and capturing printed
/// module source into Ctx.Printed after requested passes.
class PassPipeline {
public:
  void add(std::unique_ptr<Pass> P);

  /// Runs every pass in order against \p Ctx; stops at the first failure.
  /// VerifyEach / PrintAfter behavior comes from Ctx.EffectiveOptions.
  bool run(CompilationContext &Ctx);

private:
  std::vector<std::unique_ptr<Pass>> Passes;
};

/// Instantiates the pass registered under \p Name in PassManager.cpp's
/// pass table; null for an unknown name (PipelineOptions::validate()'s
/// diagnostic lists the registered names).
std::unique_ptr<Pass> createPass(const std::string &Name);

} // namespace closer

#endif // CLOSER_CLOSING_PASSMANAGER_H
