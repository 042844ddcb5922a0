//===- ClosingTransform.h - The paper's closing algorithm ------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The primary contribution of the paper: the algorithm of Figure 1, which
/// transforms an open program into a closed nondeterministic one.
///
/// Per procedure G_j, given V_I(n) from the environment-input analysis
/// (dataflow/EnvTaint.h implements Step 2):
///
///  * Step 3 marks the nodes preserved in G'_j: the start node, termination
///    statements, procedure calls, and the assignment/conditional
///    statements not in N_I;
///  * Step 4 reconstructs the control flow: for each arc a out of a marked
///    node, succ(a) is the set of marked nodes reachable through unmarked
///    nodes only; |succ(a)| = 0 drops the arc (this is where divergences of
///    the original program are lost), = 1 links directly, > 1 introduces a
///    conditional on VS_toss(|succ(a)|-1);
///  * Step 5 removes the parameters defined by E_S (they become
///    uninitialized locals so untainted residual writes still have
///    storage) and the matching arguments at every call site and process
///    instantiation. Environment-dependent payloads of visible operations
///    are replaced by the distinguished `unknown` literal — the value
///    cannot affect enabledness (paper §2 assumption) and every use of it
///    downstream has itself been eliminated.
///
/// `env_input()` / `env_output()` interface operations are never marked:
/// the transformation eliminates the interface altogether (§3).
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_CLOSING_CLOSINGTRANSFORM_H
#define CLOSER_CLOSING_CLOSINGTRANSFORM_H

#include "cfg/Cfg.h"
#include "dataflow/EnvTaint.h"

#include <cstdint>

namespace closer {

/// Options of the closing transform: only the taint analysis's (its coarse
/// mode is experiment E8's ablation). The redundant-toss merge is the
/// separate dedup-toss pass, dedupTossBranches().
struct ClosingOptions {
  TaintOptions Taint;
};

/// Counters describing one closing run.
struct ClosingStats {
  size_t NodesBefore = 0;
  size_t NodesAfter = 0;
  size_t TossNodesInserted = 0;
  size_t ArcsDropped = 0;       ///< |succ(a)| == 0 cases.
  size_t ParamsRemoved = 0;     ///< Step 5 Point 1.
  size_t ArgsRemoved = 0;       ///< Step 5 Point 2.
  size_t PayloadsSanitized = 0; ///< Visible-op arguments replaced by unknown.
  size_t EnvCallsRemoved = 0;   ///< env_input/env_output nodes eliminated.
  size_t NodesEliminated = 0;   ///< Unmarked assignment/conditional nodes.
  size_t TossNodesDeduped = 0;  ///< Removed by the dedup-toss pass.
};

/// Figure 1 one procedure at a time, the one closing path: closeProc(P)
/// closes procedure P of \p Open into the module under construction, and
/// finish() applies Step 5 to the process instantiations and returns it.
/// closeProc(P) reads procedure P's nodes and taint facts and nothing else
/// of the open module but its declarations, its procedure names and
/// parameter taint, so the close pass frees procedure P and its analyses
/// as soon as the call returns. Procedures close in index order, each
/// once, before finish().
class ModuleCloser {
public:
  /// \p Analysis must have been computed on \p Open; both must outlive
  /// the closer. Counters accumulate into \p Stats when it is non-null.
  ModuleCloser(const Module &Open, const EnvAnalysis &Analysis,
               ClosingStats *Stats = nullptr);

  void closeProc(size_t ProcIdx);
  Module finish();

private:
  const Module &Open;
  const EnvAnalysis &Analysis;
  ClosingStats Local;
  ClosingStats &Stats;
  ProcIndex Procs; ///< Borrows the open module's procedure names.
  Module Out;
};

/// Closes \p Mod with its most general environment: returns the transformed
/// module S'. \p Analysis must have been computed on \p Mod, and it
/// carries every knob the transform depends on, so \p Options is unused.
/// Leaves \p Mod and \p Analysis intact (a ModuleCloser loop over every
/// procedure).
Module closeModule(const Module &Mod, const EnvAnalysis &Analysis,
                   const ClosingOptions &Options = {},
                   ClosingStats *Stats = nullptr);

/// Convenience overload running the analysis internally.
Module closeModule(const Module &Mod, const ClosingOptions &Options = {},
                   ClosingStats *Stats = nullptr);

/// Step 3 of Figure 1, exposed for tests: is node \p N of procedure
/// \p ProcIdx preserved in the transformed graph?
bool isMarkedNode(const Module &Mod, const EnvAnalysis &Analysis,
                  size_t ProcIdx, NodeId N);

/// The §5/§7 redundant-toss elimination (the dedup-toss pass), applicable
/// to any module: TossBranch nodes of a procedure with identical bound and
/// successor arcs are merged, iterated to a fixpoint so chains of tosses
/// collapse too, and unreachable nodes are pruned. Returns the number of
/// toss nodes removed.
size_t dedupTossBranches(ProcCfg &Proc);

/// Whole-module variant; when \p ChangedProcs is non-null it receives the
/// indices of the procedures that were rewritten (for per-procedure
/// analysis invalidation).
size_t dedupTossBranches(Module &Mod,
                         std::vector<size_t> *ChangedProcs = nullptr);

} // namespace closer

#endif // CLOSER_CLOSING_CLOSINGTRANSFORM_H
