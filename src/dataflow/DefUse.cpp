//===- DefUse.cpp - Reaching definitions and define-use graphs -------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "dataflow/DefUse.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_map>

using namespace closer;

void ExprUses::merge(const ExprUses &Other) {
  Plain.insert(Other.Plain.begin(), Other.Plain.end());
  Cross.insert(Other.Cross.begin(), Other.Cross.end());
  UsesUnknown |= Other.UsesUnknown;
}

namespace {

void collectInto(const Module &Mod, const ProcCfg &Proc,
                 const AliasAnalysis &Alias, const Expr *E, ExprUses &Out) {
  if (!E)
    return;
  switch (E->Kind) {
  case ExprKind::IntLit:
    return;
  case ExprKind::Unknown:
    Out.UsesUnknown = true;
    return;
  case ExprKind::VarRef:
    Out.Plain.insert(E->Name);
    return;
  case ExprKind::ArrayIndex:
    Out.Plain.insert(E->Name);
    collectInto(Mod, Proc, Alias, E->Lhs.get(), Out);
    return;
  case ExprKind::AddrOf:
    // Taking an address reads nothing except an array index expression.
    if (E->Lhs->Kind == ExprKind::ArrayIndex)
      collectInto(Mod, Proc, Alias, E->Lhs->Lhs.get(), Out);
    return;
  case ExprKind::Deref: {
    // Reads the pointer expression and everything it may point to.
    collectInto(Mod, Proc, Alias, E->Lhs.get(), Out);
    for (const std::string &Qual : Alias.derefTargets(Proc, E->Lhs.get())) {
      if (isGlobalQual(Qual) || ownerProc(Qual) == Proc.Name)
        Out.Plain.insert(plainName(Qual));
      else
        Out.Cross.insert(Qual);
    }
    return;
  }
  case ExprKind::Unary:
    collectInto(Mod, Proc, Alias, E->Lhs.get(), Out);
    return;
  case ExprKind::Binary:
    collectInto(Mod, Proc, Alias, E->Lhs.get(), Out);
    collectInto(Mod, Proc, Alias, E->Rhs.get(), Out);
    return;
  case ExprKind::Call:
    assert(false && "call expressions are lowered to Call nodes");
    return;
  }
}

} // namespace

ExprUses closer::collectExprUses(const Module &Mod, const ProcCfg &Proc,
                                 const AliasAnalysis &Alias, const Expr *E) {
  ExprUses Out;
  collectInto(Mod, Proc, Alias, E, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// ProcDataflow
//===----------------------------------------------------------------------===//

struct ProcDataflow::FlatArc {
  NodeId From;
  NodeId To;
  uint32_t Var; ///< DefVars index.
};

namespace {

/// Interns names to provisional ids in first-seen order. finish() copies
/// the names into a sorted table and maps each provisional id to its
/// index there, so ids ascend in name order once remapped.
class NameInterner {
public:
  uint32_t intern(const std::string &Name) {
    auto [It, Fresh] =
        Ids.try_emplace(Name, static_cast<uint32_t>(Order.size()));
    if (Fresh)
      Order.push_back(&It->first);
    return It->second;
  }

  std::vector<uint32_t> finish(std::vector<std::string> &Names) {
    std::vector<uint32_t> Sorted(Order.size());
    std::iota(Sorted.begin(), Sorted.end(), 0u);
    std::sort(Sorted.begin(), Sorted.end(),
              [&](uint32_t A, uint32_t B) { return *Order[A] < *Order[B]; });
    std::vector<uint32_t> Remap(Order.size());
    Names.clear();
    Names.reserve(Order.size());
    for (uint32_t Rank = 0; Rank != Sorted.size(); ++Rank) {
      Remap[Sorted[Rank]] = Rank;
      Names.push_back(*Order[Sorted[Rank]]);
    }
    return Remap;
  }

private:
  std::unordered_map<std::string, uint32_t> Ids;
  std::vector<const std::string *> Order;
};

/// Ends the current node's slice.
void closeNode(NodeIdLists &L) {
  L.Off.push_back(static_cast<uint32_t>(L.Dat.size()));
}

/// Drops the offsets of a kind no node has an entry of.
void dropIfEmpty(NodeIdLists &L) {
  if (L.Dat.empty())
    std::vector<uint32_t>().swap(L.Off);
}

/// Maps the provisional ids of a name-set kind through \p Remap, then sorts
/// and deduplicates each node's slice (compacting the arrays in place).
void finishNameSets(NodeIdLists &L, const std::vector<uint32_t> &Remap) {
  for (uint32_t &Id : L.Dat)
    Id = Remap[Id];
  uint32_t Out = 0, Begin = 0;
  for (size_t I = 1; I < L.Off.size(); ++I) {
    auto B = L.Dat.begin() + Begin, E = L.Dat.begin() + L.Off[I];
    Begin = L.Off[I];
    std::sort(B, E);
    for (auto It = B, Last = std::unique(B, E); It != Last; ++It)
      L.Dat[Out++] = *It;
    L.Off[I] = Out;
  }
  L.Dat.resize(Out);
  L.Dat.shrink_to_fit();
  dropIfEmpty(L);
}

/// Maps the provisional name ids inside def codes through \p Remap.
void finishDefs(NodeIdLists &L, const std::vector<uint32_t> &Remap) {
  for (uint32_t &Code : L.Dat)
    Code = Remap[Code >> 1] << 1 | (Code & 1);
  dropIfEmpty(L);
}

} // namespace

ProcDataflow::ProcDataflow(const Module &Mod, const ProcCfg &Proc,
                           const AliasAnalysis &Alias)
    : Proc(Proc) {
  computeUsesDefs(Mod, Alias);
  computeReachingDefs();
}

void ProcDataflow::computeUsesDefs(const Module &Mod,
                                   const AliasAnalysis &Alias) {
  size_t N = Proc.Nodes.size();
  NameInterner Interner;
  for (const std::string &P : Proc.Params)
    Interner.intern(P);
  for (NodeIdLists *L : {&Uses, &CrossUses, &Defs, &CrossDefs}) {
    L->Off.reserve(N + 1);
    L->Off.push_back(0);
  }
  NodeUsesUnknown.assign(N, false);

  for (size_t I = 0; I != N; ++I) {
    const CfgNode &Node = Proc.Nodes[I];
    ExprUses U;

    // Value / condition expression.
    if (Node.Value)
      collectInto(Mod, Proc, Alias, Node.Value.get(), U);

    // Call arguments. The object argument of an object builtin is a name,
    // not a data read.
    unsigned FirstValueArg = 0;
    if (Node.Kind == CfgNodeKind::Call && Node.Builtin != BuiltinKind::None &&
        builtinInfo(Node.Builtin).TakesObject)
      FirstValueArg = 1;
    for (size_t A = FirstValueArg, AE = Node.Args.size(); A != AE; ++A)
      collectInto(Mod, Proc, Alias, Node.Args[A].get(), U);

    // Target lvalue reads: index expressions and dereferenced pointers.
    if (Node.Target) {
      const Expr *T = Node.Target.get();
      switch (T->Kind) {
      case ExprKind::VarRef:
        break;
      case ExprKind::ArrayIndex:
        collectInto(Mod, Proc, Alias, T->Lhs.get(), U);
        break;
      case ExprKind::Deref:
        collectInto(Mod, Proc, Alias, T->Lhs.get(), U);
        // Note: the *pointed-to* cells are written, not read; they are
        // handled as definitions below. Remove them from the read set the
        // Deref collector would have added.
        break;
      default:
        break;
      }
    }

    // Definitions, as (provisional name id << 1) | strong.
    auto AddDef = [&](const std::string &Name, bool Strong) {
      Defs.Dat.push_back(Interner.intern(Name) << 1 | (Strong ? 1 : 0));
    };
    if (Node.Target) {
      const Expr *T = Node.Target.get();
      switch (T->Kind) {
      case ExprKind::VarRef:
        AddDef(T->Name, /*Strong=*/true);
        break;
      case ExprKind::ArrayIndex:
        AddDef(T->Name, /*Strong=*/false);
        break;
      case ExprKind::Deref: {
        for (const std::string &Qual :
             Alias.derefTargets(Proc, T->Lhs.get())) {
          if (isGlobalQual(Qual) || ownerProc(Qual) == Proc.Name)
            AddDef(plainName(Qual), /*Strong=*/false);
          else
            CrossDefs.Dat.push_back(Interner.intern(Qual));
        }
        break;
      }
      default:
        break;
      }
    }

    // A deref TARGET also appears in U via the generic collector when the
    // lvalue pointer expression mentions the pointed-to variables; that is
    // acceptable over-approximation (a weak def keeps old values live, so
    // treating the cell as also-read is sound for taint purposes).
    for (const std::string &Name : U.Plain)
      Uses.Dat.push_back(Interner.intern(Name));
    for (const std::string &Name : U.Cross)
      CrossUses.Dat.push_back(Interner.intern(Name));
    NodeUsesUnknown[I] = U.UsesUnknown;
    for (NodeIdLists *L : {&Uses, &CrossUses, &Defs, &CrossDefs})
      closeNode(*L);
  }

  std::vector<uint32_t> Remap = Interner.finish(Names);
  finishNameSets(Uses, Remap);
  finishNameSets(CrossUses, Remap);
  finishNameSets(CrossDefs, Remap);
  finishDefs(Defs, Remap);
}

namespace {

/// Flat (offset, length) slices over one shared pool — the reaching sets of
/// all nodes live in two contiguous arrays instead of one heap allocation
/// per node. Slices are immutable; an update appends the new set at the
/// pool tail and repoints the slice (the abandoned slot is never reused —
/// total churn is bounded by the few fixpoint passes, so the pool stays
/// within a small constant of the final footprint).
struct SlicePool {
  std::vector<uint64_t> Data;
  std::vector<size_t> Off;
  std::vector<uint32_t> Len;

  /// \p CapacityHint pre-sizes the data array: pool growth reallocation
  /// memcpys the whole pool, which is free while it fits in cache but
  /// dominates the solve at 10^5 nodes. The hint need not be exact — the
  /// vector still grows if it is exceeded.
  SlicePool(size_t N, size_t CapacityHint) : Off(N, 0), Len(N, 0) {
    Data.reserve(CapacityHint);
  }

  const uint64_t *begin(size_t I) const { return Data.data() + Off[I]; }
  const uint64_t *end(size_t I) const { return begin(I) + Len[I]; }
  bool equals(size_t I, const std::vector<uint64_t> &V) const {
    return Len[I] == V.size() && std::equal(V.begin(), V.end(), begin(I));
  }
  void assign(size_t I, const std::vector<uint64_t> &V) {
    Off[I] = Data.size();
    Len[I] = static_cast<uint32_t>(V.size());
    Data.insert(Data.end(), V.begin(), V.end());
  }
};

/// Sorted-unique merge of two sorted ranges into \p Dst (appended).
void mergeUnique(const uint64_t *A, const uint64_t *AE, const uint64_t *B,
                 const uint64_t *BE, std::vector<uint64_t> &Dst) {
  while (A != AE && B != BE) {
    uint64_t V = *A < *B ? *A : *B;
    if (*A == V)
      ++A;
    if (B != BE && *B == V)
      ++B;
    Dst.push_back(V);
  }
  Dst.insert(Dst.end(), A, AE);
  Dst.insert(Dst.end(), B, BE);
}

} // namespace

void ProcDataflow::computeReachingDefs() {
  // Definition sites are (node, var); the entry contributes a pseudo-def
  // for every parameter (its environment-bindable incoming value).
  //
  // The solver is allocation-free in its hot loop: def-site variables are
  // interned to dense ids (only parameters and defined variables can appear
  // as reaching definitions), a site is packed into one uint64
  // ((node + 1) << 32 | var-id, with node + 1 == 0 encoding the entry
  // pseudo-def), and all per-node data lives in flat CSR arrays / slice
  // pools rather than one container per node. The per-node-container
  // layout was the superlinear-looking term in the scaling benchmark:
  // hundreds of thousands of scattered small allocations put every access
  // behind a TLB miss once the procedure outgrew the fast cache levels,
  // so ns/unit crept up with size even though the operation count is
  // linear. Flat arrays keep the access pattern sequential and the
  // footprint minimal, which is what holds ns/unit flat to ~1M nodes.
  size_t N = Proc.Nodes.size();

  // DefVarOf[name id]: the name's def-site variable id, or NoVar.
  constexpr uint32_t NoVar = ~uint32_t(0);
  std::vector<uint32_t> DefVarOf(Names.size(), NoVar);
  auto internVar = [&](uint32_t NameId) {
    uint32_t &V = DefVarOf[NameId];
    if (V == NoVar) {
      V = static_cast<uint32_t>(DefVars.size());
      DefVars.push_back(NameId);
    }
    return V;
  };
  auto paramVar = [&](const std::string &P) {
    auto It = std::lower_bound(Names.begin(), Names.end(), P);
    assert(It != Names.end() && *It == P && "parameters are always interned");
    return internVar(static_cast<uint32_t>(It - Names.begin()));
  };
  auto packSite = [](uint64_t NodePlus1, uint32_t Var) {
    return NodePlus1 << 32 | Var;
  };
  auto sortUnique = [](auto &Vec) {
    std::sort(Vec.begin(), Vec.end());
    Vec.erase(std::unique(Vec.begin(), Vec.end()), Vec.end());
  };

  for (const std::string &P : Proc.Params)
    paramVar(P);

  // Own def sites and strong kills, CSR over nodes (one reused scratch
  // buffer, two flat arrays — not 2N vectors).
  std::vector<size_t> DefOff(N + 1, 0), KillOff(N + 1, 0);
  std::vector<uint64_t> DefDat;
  std::vector<uint32_t> KillDat;
  {
    std::vector<uint64_t> TmpDefs;
    std::vector<uint32_t> TmpKills;
    for (size_t I = 0; I != N; ++I) {
      TmpDefs.clear();
      TmpKills.clear();
      for (const uint32_t *C = Defs.begin(I), *CE = Defs.end(I); C != CE;
           ++C) {
        uint32_t V = internVar(*C >> 1);
        TmpDefs.push_back(packSite(I + 1, V));
        if (*C & 1)
          TmpKills.push_back(V);
      }
      sortUnique(TmpDefs);
      sortUnique(TmpKills);
      DefDat.insert(DefDat.end(), TmpDefs.begin(), TmpDefs.end());
      KillDat.insert(KillDat.end(), TmpKills.begin(), TmpKills.end());
      DefOff[I + 1] = DefDat.size();
      KillOff[I + 1] = KillDat.size();
    }
  }

  // Predecessor lists, CSR (count, prefix-sum, fill).
  std::vector<size_t> PredOff(N + 2, 0);
  for (size_t I = 0; I != N; ++I)
    for (const CfgArc &Arc : Proc.Nodes[I].Arcs)
      ++PredOff[Arc.Target + 2];
  for (size_t I = 2; I != N + 2; ++I)
    PredOff[I] += PredOff[I - 1];
  std::vector<NodeId> PredDat(PredOff[N + 1]);
  for (size_t I = 0; I != N; ++I)
    for (const CfgArc &Arc : Proc.Nodes[I].Arcs)
      PredDat[PredOff[Arc.Target + 1]++] = static_cast<NodeId>(I);

  std::vector<uint64_t> EntrySet;
  for (const std::string &P : Proc.Params)
    EntrySet.push_back(packSite(0, paramVar(P)));
  sortUnique(EntrySet);

  // Only Out sets are stored; In is rebuilt per node by joining the final
  // predecessor Outs once the fixpoint is reached. Dropping the In pool
  // halves the solver's streamed bytes, which is what it is bound by once
  // the pools outgrow the cache — the ns/unit cost at N~10^5 tracks the
  // number of pool bytes written, not the operation count.
  // Capacity hint: every node's Out holds at most all def-site variables,
  // but in practice it holds roughly the live-variable count; 8 sites per
  // node covers typical programs without overcommitting memory.
  SlicePool Out(N, N * 8 + EntrySet.size() + 64);
  std::vector<uint64_t> NewIn, NewOut, MergeTmp;

  // Join: sorted-unique union of predecessor Outs (plus the entry
  // pseudo-defs), built by pairwise merges — no sort in the hot loop.
  auto joinPreds = [&](NodeId Id, std::vector<uint64_t> &Dst) {
    Dst.clear();
    if (Id == Proc.Entry)
      Dst.insert(Dst.end(), EntrySet.begin(), EntrySet.end());
    for (size_t P = PredOff[Id], PE = PredOff[Id + 1]; P != PE; ++P) {
      NodeId Pred = PredDat[P];
      if (Dst.empty()) {
        Dst.insert(Dst.end(), Out.begin(Pred), Out.end(Pred));
        continue;
      }
      MergeTmp.clear();
      mergeUnique(Dst.data(), Dst.data() + Dst.size(), Out.begin(Pred),
                  Out.end(Pred), MergeTmp);
      std::swap(Dst, MergeTmp);
    }
  };

  // Worklist iteration (forward, may). Seeding every node once guarantees
  // each node's Out is computed at least once even in unreachable corners.
  std::vector<char> InWork(N, 1);
  std::vector<NodeId> Work;
  for (size_t I = N; I != 0; --I)
    Work.push_back(static_cast<NodeId>(I - 1));
  while (!Work.empty()) {
    NodeId Id = Work.back();
    Work.pop_back();
    InWork[Id] = false;

    joinPreds(Id, NewIn);

    // Transfer: kill strong defs, merge own definitions (both sorted, so
    // filter + merge keeps NewOut sorted without re-sorting).
    NewOut.clear();
    const uint32_t *KB = KillDat.data() + KillOff[Id];
    const uint32_t *KE = KillDat.data() + KillOff[Id + 1];
    MergeTmp.clear();
    for (uint64_t Site : NewIn)
      if (!std::binary_search(KB, KE, static_cast<uint32_t>(Site)))
        MergeTmp.push_back(Site);
    mergeUnique(MergeTmp.data(), MergeTmp.data() + MergeTmp.size(),
                DefDat.data() + DefOff[Id], DefDat.data() + DefOff[Id + 1],
                NewOut);

    if (Out.equals(Id, NewOut))
      continue;
    Out.assign(Id, NewOut);
    for (const CfgArc &Arc : Proc.Nodes[Id].Arcs) {
      if (!InWork[Arc.Target]) {
        InWork[Arc.Target] = true;
        Work.push_back(Arc.Target);
      }
    }
  }

  // Materialize define-use arcs. Each node's In set is rebuilt here from
  // the converged Outs; it is sorted by (node + 1, var), so entry
  // pseudo-defs come first in var-id order and each node's EntryReaching
  // slice comes out ascending.
  std::vector<FlatArc> Arcs;
  Arcs.reserve(N);
  std::vector<uint32_t> UseIds;
  EntryReaching.Off.reserve(N + 1);
  EntryReaching.Off.push_back(0);
  for (size_t I = 0; I != N; ++I) {
    UseIds.clear();
    for (const uint32_t *U = Uses.begin(I), *UE = Uses.end(I); U != UE; ++U)
      if (DefVarOf[*U] != NoVar)
        UseIds.push_back(DefVarOf[*U]);
    std::sort(UseIds.begin(), UseIds.end());
    if (!UseIds.empty()) {
      joinPreds(static_cast<NodeId>(I), NewIn);
      for (uint64_t Site : NewIn) {
        uint32_t V = static_cast<uint32_t>(Site);
        if (!std::binary_search(UseIds.begin(), UseIds.end(), V))
          continue;
        uint64_t FromPlus1 = Site >> 32;
        if (FromPlus1 == 0)
          EntryReaching.Dat.push_back(V);
        else
          Arcs.push_back({static_cast<NodeId>(FromPlus1 - 1),
                          static_cast<NodeId>(I), V});
      }
    }
    closeNode(EntryReaching);
  }
  dropIfEmpty(EntryReaching);
  // Flat order is (use node, In-site order), so per-defining-node arcs in
  // DuSucc arrive with ascending use node and each node's DuPred slice
  // preserves In-site order.
  buildArcs(Arcs);
}

void ProcDataflow::buildArcs(const std::vector<FlatArc> &Arcs) {
  size_t N = Proc.Nodes.size();
  DuSucc.Off.assign(N + 1, 0);
  DuPred.Off.assign(N + 1, 0);
  for (const FlatArc &A : Arcs) {
    ++DuSucc.Off[A.From + 1];
    ++DuPred.Off[A.To + 1];
  }
  for (size_t I = 1; I != N + 1; ++I) {
    DuSucc.Off[I] += DuSucc.Off[I - 1];
    DuPred.Off[I] += DuPred.Off[I - 1];
  }
  DuSucc.Dat.resize(Arcs.size());
  DuPred.Dat.resize(Arcs.size());
  std::vector<uint32_t> SuccAt(DuSucc.Off.begin(), DuSucc.Off.end() - 1);
  std::vector<uint32_t> PredAt(DuPred.Off.begin(), DuPred.Off.end() - 1);
  for (const FlatArc &A : Arcs) {
    uint32_t Var = DefVars[A.Var];
    DuSucc.Dat[SuccAt[A.From]++] = {A.To, Var};
    DuPred.Dat[PredAt[A.To]++] = {A.From, Var};
  }
}

bool ProcDataflow::paramEntryReaches(NodeId N, const std::string &Var) const {
  // Slices hold the few parameters live at the node, usually none.
  for (const uint32_t *V = EntryReaching.begin(N), *VE = EntryReaching.end(N);
       V != VE; ++V)
    if (Names[DefVars[*V]] == Var)
      return true;
  return false;
}
