//===- AnalysisManager.h - Cached dataflow analyses ------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lazily computed, explicitly invalidated caches for the three analyses the
/// closing side runs — may-alias (module-wide), define-use (per procedure)
/// and the environment-taint fixpoint (module-wide) — so a pipeline such as
/// `partition → close` computes each analysis once and the later passes
/// reuse the cached results instead of recomputing them from scratch.
///
/// Invalidation is the transform pass's responsibility and is deliberately
/// coarse but per-procedure where it can be:
///
///  * invalidateProc(I, AliasPreserved=true) — pass rewrote procedure I
///    without changing any points-to fact (e.g. input-domain partitioning,
///    whose eligibility rules exclude address-taken variables). Drops the
///    procedure's define-use graph and the module-wide taint; the alias
///    analysis and every other procedure's define-use survive.
///  * invalidateProc(I, AliasPreserved=false) — conservative variant: also
///    drops the alias analysis and with it every define-use graph (they
///    were computed against the dropped alias facts).
///  * releaseProc(I) — the close pass has closed procedure I and frees it:
///    its define-use graph and its per-node taint facts go, while the
///    alias analysis and the taint summaries serve the procedures left.
///  * rebind(NewModule) — the pass replaced the module wholesale (the
///    closing transformation rebuilds every procedure); everything is
///    dropped and the manager re-targets the new module.
///
/// Every get*() call bumps a per-analysis Computed or Reused counter; the
/// pass pipeline surfaces them in its stats artifact, which is how the
/// cache's payoff is asserted in tests and scripts/check.sh.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_DATAFLOW_ANALYSISMANAGER_H
#define CLOSER_DATAFLOW_ANALYSISMANAGER_H

#include "dataflow/EnvTaint.h"

#include <memory>
#include <vector>

namespace closer {

/// How often one analysis was computed from scratch vs served from cache.
struct AnalysisCounter {
  uint64_t Computed = 0;
  uint64_t Reused = 0;
};

/// Counters for all cached analyses. DefUse counts once per procedure; the
/// module-wide analyses count once per module-level (re)computation.
struct AnalysisStats {
  AnalysisCounter Alias;
  AnalysisCounter DefUse;
  AnalysisCounter EnvTaint;
};

class AnalysisManager {
public:
  explicit AnalysisManager(const Module &Mod);

  const Module &module() const { return *M; }

  /// The module-wide Steensgaard may-alias analysis.
  const AliasAnalysis &getAlias();

  /// The define-use graph of procedure \p ProcIdx (computes the alias
  /// analysis first if needed).
  const ProcDataflow &getDefUse(size_t ProcIdx);

  /// The whole-module environment-taint fixpoint, built on top of the
  /// cached alias and define-use results. A cached result is reused only
  /// when \p Options match the ones it was computed with.
  const EnvAnalysis &getEnvTaint(const TaintOptions &Options = {});

  /// A transform pass rewrote procedure \p ProcIdx in place (the ProcCfg
  /// object was assigned to; no other procedure moved). \p AliasPreserved
  /// asserts that no points-to fact changed.
  void invalidateProc(size_t ProcIdx, bool AliasPreserved);

  /// Drops every cached analysis.
  void invalidateAll();

  /// A pass that dismantles the module procedure by procedure (the close
  /// pass) is done with procedure \p ProcIdx: frees its define-use graph
  /// and the taint fixpoint's per-node facts about it. The alias analysis
  /// and the taint summaries the other procedures need stay; the counters
  /// do not move. Once every procedure is released, only rebind() may
  /// follow.
  void releaseProc(size_t ProcIdx);

  /// The module was replaced wholesale (all cached analyses reference the
  /// old object); drop everything and re-target \p NewMod. Call this
  /// *before* destroying the old module.
  void rebind(const Module &NewMod);

  const AnalysisStats &stats() const { return Stats; }

private:
  /// Materializes the alias analysis without touching the Reused counter;
  /// used for internal dependencies (getDefUse) so a cold per-procedure
  /// request does not inflate the alias reuse count N-1 times per module.
  const AliasAnalysis &ensureAlias();

  const Module *M;
  std::unique_ptr<AliasAnalysis> Alias;
  std::vector<std::unique_ptr<ProcDataflow>> DefUse; ///< Null = not cached.
  std::unique_ptr<EnvAnalysis> Taint;
  TaintOptions TaintOpts; ///< Options Taint was computed with.
  AnalysisStats Stats;
};

} // namespace closer

#endif // CLOSER_DATAFLOW_ANALYSISMANAGER_H
