//===- DefUse.h - Reaching definitions and define-use graphs ---*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-procedure define-use graphs exactly as the paper defines them (§4):
/// the define-use graph G~_j = (N_j, A~_j) has an arc (n, n') labeled v when
/// n defines variable v, n' uses v, and some control-flow path from n to n'
/// does not redefine v. Built from classic reaching definitions over the
/// CFG, with may-definitions (array elements, pointer dereferences via the
/// may-alias analysis) as weak (non-killing) definitions.
///
/// Each node also exposes:
///  * uses(n)      — plain names of same-procedure/global variables read;
///  * crossUses(n) — qualified names of other procedures' variables read
///                   through pointers;
///  * defs(n)      — written variables with strong/weak classification;
///  * crossDefs(n) — qualified names written in other procedures' frames;
///  * usesUnknown(n) — the node reads the distinguished `unknown` literal;
///  * paramEntryReaches(n, v) — the incoming (environment-bindable) value
///                   of parameter v may still be live at n.
///
/// Storage is flat. Every name a procedure's sets mention is interned once
/// into a sorted name table; each kind of per-node set (uses, cross uses,
/// defs, cross defs, entry-reaching parameters) is one offset array plus
/// one id array in CSR form, like the define-use arcs. A node that uses
/// nothing costs one offset per kind instead of five container headers,
/// and the name-set accessors return views that iterate in lexicographic
/// order because the table is sorted.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_DATAFLOW_DEFUSE_H
#define CLOSER_DATAFLOW_DEFUSE_H

#include "cfg/Cfg.h"
#include "dataflow/AliasAnalysis.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace closer {

/// Collects the variables an expression reads, expanding dereferences via
/// the alias analysis. Used both for building define-use graphs and for
/// deciding argument taint during the closing transformation.
struct ExprUses {
  std::set<std::string> Plain; ///< Same-procedure locals/params + globals.
  std::set<std::string> Cross; ///< Qualified names from other procedures.
  bool UsesUnknown = false;

  void merge(const ExprUses &Other);
};

/// Variables read by \p E evaluated inside \p Proc.
ExprUses collectExprUses(const Module &Mod, const ProcCfg &Proc,
                         const AliasAnalysis &Alias, const Expr *E);

/// One definition performed by a node, as defs() yields it. \c Name refers
/// to the owning ProcDataflow's name table.
struct VarDef {
  const std::string &Name; ///< Plain name (same-proc or global).
  bool Strong;             ///< Kills previous definitions of Name.
};

/// One endpoint of a define-use arc: the node on the far side and the arc's
/// variable label. \c Var points into the owning ProcDataflow's name table
/// and stays valid for the analysis' lifetime.
struct DuArc {
  NodeId Node;
  const std::string *Var;
};

/// Contiguous, read-only view over one node's define-use arcs (a slice of
/// the analysis-owned CSR arc array).
class DuArcRange {
public:
  DuArcRange(const DuArc *B, const DuArc *E) : B(B), E(E) {}
  const DuArc *begin() const { return B; }
  const DuArc *end() const { return E; }
  size_t size() const { return static_cast<size_t>(E - B); }
  bool empty() const { return B == E; }
  const DuArc &operator[](size_t I) const { return B[I]; }

private:
  const DuArc *B;
  const DuArc *E;
};

/// Id decoders for the two kinds of IdRange: a name-set entry is a plain
/// name id; a def entry is (name id << 1) | strong.
struct NameOfId {
  const std::string &operator()(const std::string *Names, uint32_t Id) const {
    return Names[Id];
  }
};
struct DefOfCode {
  VarDef operator()(const std::string *Names, uint32_t Code) const {
    return {Names[Code >> 1], (Code & 1) != 0};
  }
};

/// Read-only view over one slice of name-table ids; \p Decode turns an id
/// into the element the view yields.
template <class Decode> class IdRange {
public:
  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using reference = decltype(Decode{}(nullptr, 0));
    using value_type = std::remove_cvref_t<reference>;
    using difference_type = std::ptrdiff_t;
    using pointer = void;

    iterator() = default;
    iterator(const uint32_t *P, const std::string *Names)
        : P(P), Names(Names) {}
    reference operator*() const { return Decode{}(Names, *P); }
    iterator &operator++() {
      ++P;
      return *this;
    }
    iterator operator++(int) {
      iterator Old = *this;
      ++P;
      return Old;
    }
    bool operator==(const iterator &O) const { return P == O.P; }

  private:
    const uint32_t *P = nullptr;
    const std::string *Names = nullptr;
  };

  IdRange(const uint32_t *B, const uint32_t *E, const std::string *Names)
      : B(B), E(E), Names(Names) {}
  iterator begin() const { return {B, Names}; }
  iterator end() const { return {E, Names}; }
  size_t size() const { return static_cast<size_t>(E - B); }
  bool empty() const { return B == E; }

  /// 1 when the name set holds \p Name, else 0 (a binary search: name-set
  /// ids ascend in name order).
  size_t count(std::string_view Name) const
    requires std::is_same_v<Decode, NameOfId>
  {
    const uint32_t *It = std::lower_bound(
        B, E, Name, [this](uint32_t Id, std::string_view V) {
          return std::string_view(Names[Id]) < V;
        });
    return It != E && Names[*It] == Name;
  }

private:
  const uint32_t *B;
  const uint32_t *E;
  const std::string *Names;
};

/// A node's name set, in lexicographic order; supports count(name).
using NameRange = IdRange<NameOfId>;
/// A node's definitions, in the order the node performs them.
using DefRange = IdRange<DefOfCode>;

/// Per-node lists in CSR form: node I's entries are Dat[Off[I] .. Off[I+1]).
/// Off is empty when no node has an entry, so a kind of set that is empty
/// everywhere costs nothing per node.
template <class T> struct NodeLists {
  std::vector<uint32_t> Off;
  std::vector<T> Dat;

  const T *begin(size_t I) const {
    return Off.empty() ? Dat.data() : Dat.data() + Off[I];
  }
  const T *end(size_t I) const {
    return Off.empty() ? Dat.data() : Dat.data() + Off[I + 1];
  }
};

/// Per-node name-table ids.
using NodeIdLists = NodeLists<uint32_t>;

/// The define-use graph of one procedure.
class ProcDataflow {
public:
  ProcDataflow(const Module &Mod, const ProcCfg &Proc,
               const AliasAnalysis &Alias);

  const ProcCfg &proc() const { return Proc; }

  NameRange uses(NodeId N) const { return names(Uses, N); }
  NameRange crossUses(NodeId N) const { return names(CrossUses, N); }
  bool usesUnknown(NodeId N) const { return NodeUsesUnknown[N]; }
  DefRange defs(NodeId N) const {
    return {Defs.begin(N), Defs.end(N), Names.data()};
  }
  NameRange crossDefs(NodeId N) const { return names(CrossDefs, N); }

  /// Define-use arcs out of \p N: (successor use node, variable).
  DuArcRange duSuccessors(NodeId N) const {
    return {DuSuccDat.data() + DuSuccOff[N], DuSuccDat.data() + DuSuccOff[N + 1]};
  }

  /// Define-use arcs into \p N: (defining node, variable).
  DuArcRange duPredecessors(NodeId N) const {
    return {DuPredDat.data() + DuPredOff[N], DuPredDat.data() + DuPredOff[N + 1]};
  }

  /// True when the value parameter \p Var received at entry may reach the
  /// use at node \p N (no intervening strong definition on some path).
  bool paramEntryReaches(NodeId N, const std::string &Var) const;

  /// Total number of define-use arcs (size measure for the linearity
  /// experiment).
  size_t arcCount() const { return NumArcs; }

private:
  NameRange names(const NodeIdLists &L, NodeId N) const {
    return {L.begin(N), L.end(N), Names.data()};
  }

  /// A define-use arc labeled with its DefVars index, before it is filed
  /// into the CSR arrays.
  struct FlatArc;

  void computeUsesDefs(const Module &Mod, const AliasAnalysis &Alias);
  void computeReachingDefs();
  /// Files \p Arcs into both CSR directions, keeping their relative order
  /// within each node's slice.
  void buildArcs(const std::vector<FlatArc> &Arcs);

  const ProcCfg &Proc;

  /// Every name the sets below mention, sorted and unique; the id lists
  /// hold indices into it. Parameters are always present.
  std::vector<std::string> Names;
  NodeIdLists Uses;      ///< Name ids, ascending.
  NodeIdLists CrossUses; ///< Name ids, ascending.
  NodeIdLists Defs;      ///< (name id << 1) | strong, in definition order.
  NodeIdLists CrossDefs; ///< Name ids, ascending.
  std::vector<bool> NodeUsesUnknown;

  /// Def-site variables (parameters, then every other defined variable in
  /// the order nodes first define it) as name ids. The reaching-definitions
  /// solver numbers variables this way: its arcs and EntryReaching hold
  /// indices into this table.
  std::vector<uint32_t> DefVars;
  /// Per node, ascending DefVars indices: the parameters whose entry value
  /// reaches the node and is used there.
  NodeIdLists EntryReaching;

  /// Define-use arcs in CSR form, both directions: node I's arcs live in
  /// Du*Dat[Du*Off[I] .. Du*Off[I+1]). Two flat arrays per direction keep
  /// arc iteration sequential instead of chasing 2N per-node vectors.
  std::vector<size_t> DuSuccOff, DuPredOff;
  std::vector<DuArc> DuSuccDat, DuPredDat;
  size_t NumArcs = 0;
};

} // namespace closer

#endif // CLOSER_DATAFLOW_DEFUSE_H
