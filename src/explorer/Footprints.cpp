//===- Footprints.cpp - Static communication-object footprints -------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "explorer/Footprints.h"

using namespace closer;

FootprintAnalysis::FootprintAnalysis(const Module &Mod)
    : NumObjects(Mod.Comms.size()), RowWords((NumObjects + 63) / 64),
      NodeBase(nodeBases(Mod)), Table(Mod.totalNodes() * RowWords, 0) {
  // Unions row Src into row Dst; true when Dst grew.
  auto UnionInto = [this](uint64_t *Dst, const uint64_t *Src) {
    bool Grew = false;
    for (size_t W = 0; W != RowWords; ++W) {
      uint64_t Before = Dst[W];
      Dst[W] |= Src[W];
      Grew |= Dst[W] != Before;
    }
    return Grew;
  };

  // Round-robin to a global fixpoint; footprints only grow and are bounded
  // by the object count, so this terminates quickly.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t P = 0, PE = Mod.Procs.size(); P != PE; ++P) {
      const ProcCfg &Proc = Mod.Procs[P];
      const int ProcIdx = static_cast<int>(P);
      // Reverse order converges faster on forward-shaped graphs.
      for (size_t R = Proc.Nodes.size(); R != 0; --R) {
        NodeId Id = static_cast<NodeId>(R - 1);
        const CfgNode &Node = Proc.Nodes[Id];
        uint64_t *F = Table.data() + (NodeBase[P] + Id) * RowWords;

        if (Node.Kind == CfgNodeKind::Call) {
          if (Node.Builtin == BuiltinKind::None) {
            int Callee = Mod.procIndex(Node.Callee);
            if (Callee >= 0)
              Changed |= UnionInto(F, row(Callee, Mod.Procs[Callee].Entry));
          } else if (builtinInfo(Node.Builtin).TakesObject) {
            int Obj = Mod.commIndex(Node.Args[0]->Name);
            if (Obj >= 0) {
              uint64_t Bit = 1ull << (Obj % 64);
              uint64_t &Word = F[static_cast<size_t>(Obj) / 64];
              Changed |= (Word & Bit) == 0;
              Word |= Bit;
            }
          }
        }
        for (const CfgArc &Arc : Node.Arcs)
          Changed |= UnionInto(F, row(ProcIdx, Arc.Target));
      }
    }
  }
}

ObjSet FootprintAnalysis::objectsFrom(int ProcIdx, NodeId Node) const {
  ObjSet Result(NumObjects);
  Result.unionWords(row(ProcIdx, Node), RowWords);
  return Result;
}

ObjSet FootprintAnalysis::processFootprint(
    const std::vector<std::pair<int, NodeId>> &Frames) const {
  ObjSet Result(NumObjects);
  processFootprintInto(Frames, Result);
  return Result;
}

void FootprintAnalysis::processFootprintInto(
    const std::vector<std::pair<int, NodeId>> &Frames, ObjSet &Out) const {
  Out.clear();
  for (const auto &[ProcIdx, Node] : Frames)
    Out.unionWords(row(ProcIdx, Node), RowWords);
}
