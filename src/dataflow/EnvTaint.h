//===- EnvTaint.h - Environment-input (taint) analysis ---------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Step 2 of the paper's closing algorithm (Figure 1), extended to whole
/// programs. For every procedure it computes:
///
///  * N_Es — nodes that use the value of a variable defined by the
///    environment E_S;
///  * N_I  — nodes reachable from N_Es by define-use arcs;
///  * V_I(n) — for each node, the used variables that are defined by E_S or
///    label a define-use arc from an N_I node (Lemma 1's sound
///    over-approximation of functional dependence on the environment).
///
/// The paper assumes "for each input i in I_j it is possible to determine
/// whether i is also in I_S ... manual, or automatic in the form of an
/// interprocedural analysis on top of our intraprocedural analysis". This
/// is the automatic form: a fixpoint over the call graph and the
/// communication topology that infers
///
///  * which parameters may be bound to environment data (env process
///    arguments; tainted call arguments),
///  * which returned values are environment-dependent,
///  * which globals, channels and shared variables may carry environment
///    data (a send of a tainted payload taints every receive on that
///    channel — without this the transformed program would not be closed),
///  * which variables may be written environment data through pointers
///    from other procedures (consulted flow-insensitively, the
///    "interprocedural issues" conservatism of §5).
///
/// The environment's sources are: `env` process arguments, `env_input()`
/// calls, and the `unknown` literal (present only in already-closed code).
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_DATAFLOW_ENVTAINT_H
#define CLOSER_DATAFLOW_ENVTAINT_H

#include "cfg/Cfg.h"
#include "dataflow/AliasAnalysis.h"
#include "dataflow/DefUse.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace closer {

/// Analysis knobs (ablations for experiment E8).
struct TaintOptions {
  /// Coarse mode: once a procedure sees any environment input, every
  /// variable it defines is treated as environment-defined (no define-use
  /// flow sensitivity). Sound but far less precise; quantifies what the
  /// paper's define-use analysis buys.
  bool CoarseMode = false;
};

/// Read-only view over one node's V_I(n) (see ProcTaint::VI).
class TaintedVars {
public:
  TaintedVars(const std::string *const *B, const std::string *const *E)
      : B(B), E(E) {}

  /// 1 when V_I(n) holds \p Name, else 0 (a binary search: the names
  /// ascend in lexicographic order).
  size_t count(std::string_view Name) const {
    const std::string *const *It = std::lower_bound(
        B, E, Name, [](const std::string *V, std::string_view N) {
          return std::string_view(*V) < N;
        });
    return It != E && **It == Name;
  }

private:
  const std::string *const *B;
  const std::string *const *E;
};

/// Per-procedure taint facts (parallel to Module::Procs).
struct ProcTaint {
  std::vector<bool> InNI;      ///< n ∈ N_I.
  std::vector<bool> EnvSource; ///< the definition performed by n carries
                               ///< environment data (env_input, tainted
                               ///< recv/read, tainted-return call).
  /// V_I(n) of every node in CSR form. V_I(n) is a subset of uses(n), so
  /// each entry points into the procedure's define-use name table, and a
  /// node's entries ascend in name order as its uses do. Read it through
  /// vi().
  NodeLists<const std::string *> VI;
  std::vector<bool> TaintedParams;
  bool TaintedReturn = false;

  /// V_I(n) of node \p N.
  TaintedVars vi(NodeId N) const { return {VI.begin(N), VI.end(N)}; }
};

/// Whole-module taint facts.
struct TaintResult {
  std::vector<ProcTaint> Procs;
  std::set<std::string> TaintedGlobals;
  std::set<std::string> TaintedChannels;
  std::set<std::string> TaintedShared;
  /// Qualified variables that may be *written* environment data through a
  /// pointer from another procedure (flow-insensitive).
  std::set<std::string> CrossWritten;
  /// Qualified variables that may *hold* environment data at some point
  /// (consulted by cross-procedure pointer reads).
  std::set<std::string> EverTainted;

  /// Memo for the variable sets an expression reads. The sets depend only
  /// on the module and the alias facts — not on the taint state — so one
  /// cache stays valid across every fixpoint round and across the closing
  /// transform. Keys are expressions of the analyzed module, and only
  /// those of procedures still alive may be looked up: the close pass
  /// frees each procedure once it is closed, and a later allocation (a
  /// closed node's expression, say) may reuse a freed key's address.
  using ExprUsesCache = std::unordered_map<const Expr *, ExprUses>;

  /// True when an argument expression of node \p N in procedure \p ProcIdx
  /// is environment-dependent. \p Cache, when provided, memoizes the
  /// expression walk (the dominant cost on large modules).
  bool exprTainted(const Module &Mod, const AliasAnalysis &Alias,
                   size_t ProcIdx, NodeId N, const Expr *E,
                   ExprUsesCache *Cache = nullptr) const;
};

/// The analysis pipeline shared by closing and clients: alias analysis,
/// per-procedure define-use graphs, and the taint fixpoint.
class EnvAnalysis {
public:
  explicit EnvAnalysis(const Module &Mod, TaintOptions Options = {});

  /// Borrowing constructor for cached-analysis clients (the pass manager's
  /// AnalysisManager): runs only the taint fixpoint on top of an alias
  /// analysis and per-procedure define-use graphs owned by the caller.
  /// \p Dataflows must be parallel to Mod.Procs, and \p Alias and every
  /// dataflow must have been computed on \p Mod and outlive this object.
  EnvAnalysis(const Module &Mod, const AliasAnalysis &Alias,
              std::vector<const ProcDataflow *> Dataflows,
              TaintOptions Options = {});

  const Module &module() const { return Mod; }
  const AliasAnalysis &alias() const { return *AliasPtr; }
  const ProcDataflow &dataflow(size_t ProcIdx) const {
    return *DataflowPtrs[ProcIdx];
  }
  const TaintResult &taint() const { return Result; }

  /// The expression-uses memo populated during the fixpoint. Clients that
  /// query exprTainted after the analysis (the closing transform sanitizes
  /// the same argument expressions the export loop classified) pass it to
  /// reuse the walks. Mutable-by-design: it is a pure function memo.
  TaintResult::ExprUsesCache &exprUsesCache() const { return ExprCache; }

  /// True when the module has no environment interface left (every
  /// procedure's N_I is empty and there are no env_input/env_output nodes
  /// or env process arguments) — Lemma 5's closedness criterion.
  bool moduleIsClosed() const;

  /// Drops procedure \p ProcIdx's per-node facts (N_I, the env sources,
  /// V_I) and its define-use graph (freed when owned, let go when
  /// borrowed), for a client done with that procedure for good: the close
  /// pass, which frees each open procedure once it is closed. Its
  /// parameter and return taint and the module-wide sets stay, so the
  /// other procedures can still be closed.
  void releaseProc(size_t ProcIdx);

private:
  void runFixpoint(TaintOptions Options);

  const Module &Mod;
  mutable TaintResult::ExprUsesCache ExprCache;
  /// Owned storage (classic constructor); empty in borrowed mode.
  std::unique_ptr<AliasAnalysis> OwnedAlias;
  std::vector<std::unique_ptr<ProcDataflow>> OwnedDataflows;
  /// What the analysis actually consults (owned or borrowed).
  const AliasAnalysis *AliasPtr = nullptr;
  std::vector<const ProcDataflow *> DataflowPtrs;
  TaintResult Result;
};

} // namespace closer

#endif // CLOSER_DATAFLOW_ENVTAINT_H
