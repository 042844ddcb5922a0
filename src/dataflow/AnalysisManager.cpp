//===- AnalysisManager.cpp - Cached dataflow analyses -----------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "dataflow/AnalysisManager.h"

#include <cassert>

using namespace closer;

AnalysisManager::AnalysisManager(const Module &Mod) : M(&Mod) {
  DefUse.resize(Mod.Procs.size());
}

const AliasAnalysis &AnalysisManager::ensureAlias() {
  if (!Alias) {
    Alias = std::make_unique<AliasAnalysis>(*M);
    ++Stats.Alias.Computed;
  }
  return *Alias;
}

const AliasAnalysis &AnalysisManager::getAlias() {
  if (Alias)
    ++Stats.Alias.Reused;
  return ensureAlias();
}

const ProcDataflow &AnalysisManager::getDefUse(size_t ProcIdx) {
  assert(ProcIdx < DefUse.size() && "procedure index out of range");
  if (DefUse[ProcIdx]) {
    ++Stats.DefUse.Reused;
  } else {
    const AliasAnalysis &A = ensureAlias();
    DefUse[ProcIdx] =
        std::make_unique<ProcDataflow>(*M, M->Procs[ProcIdx], A);
    ++Stats.DefUse.Computed;
  }
  return *DefUse[ProcIdx];
}

const EnvAnalysis &AnalysisManager::getEnvTaint(const TaintOptions &Options) {
  if (Taint && TaintOpts.CoarseMode == Options.CoarseMode) {
    ++Stats.EnvTaint.Reused;
    return *Taint;
  }
  std::vector<const ProcDataflow *> Dataflows;
  Dataflows.reserve(M->Procs.size());
  for (size_t I = 0, E = M->Procs.size(); I != E; ++I)
    Dataflows.push_back(&getDefUse(I));
  Taint = std::make_unique<EnvAnalysis>(*M, getAlias(), std::move(Dataflows),
                                        Options);
  TaintOpts = Options;
  ++Stats.EnvTaint.Computed;
  return *Taint;
}

void AnalysisManager::invalidateProc(size_t ProcIdx, bool AliasPreserved) {
  // The taint fixpoint spans the whole module and borrows the dropped
  // define-use graph; it never survives a CFG mutation.
  Taint.reset();
  if (ProcIdx < DefUse.size())
    DefUse[ProcIdx].reset();
  if (!AliasPreserved) {
    // Every define-use graph was computed against the now-stale points-to
    // facts.
    Alias.reset();
    for (auto &DF : DefUse)
      DF.reset();
  }
}

void AnalysisManager::invalidateAll() {
  Taint.reset();
  Alias.reset();
  for (auto &DF : DefUse)
    DF.reset();
}

void AnalysisManager::releaseProc(size_t ProcIdx) {
  // The taint fixpoint borrows the define-use graph; release its view of
  // the procedure first.
  if (Taint)
    Taint->releaseProc(ProcIdx);
  DefUse[ProcIdx].reset();
}

void AnalysisManager::rebind(const Module &NewMod) {
  invalidateAll();
  M = &NewMod;
  DefUse.clear();
  DefUse.resize(NewMod.Procs.size());
}
