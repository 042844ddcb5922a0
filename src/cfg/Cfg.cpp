//===- Cfg.cpp - Control-flow graph IR -------------------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "cfg/Cfg.h"

#include <cassert>

using namespace closer;

void closer::pruneUnreachableNodes(ProcCfg &Proc) {
  std::vector<bool> Reachable(Proc.Nodes.size(), false);
  std::vector<NodeId> Work = {Proc.Entry};
  Reachable[Proc.Entry] = true;
  while (!Work.empty()) {
    NodeId Id = Work.back();
    Work.pop_back();
    for (const CfgArc &Arc : Proc.Nodes[Id].Arcs) {
      assert(Arc.Target != InvalidNode && "dangling arc while pruning");
      if (!Reachable[Arc.Target]) {
        Reachable[Arc.Target] = true;
        Work.push_back(Arc.Target);
      }
    }
  }
  std::vector<NodeId> Remap(Proc.Nodes.size(), InvalidNode);
  std::vector<CfgNode> Kept;
  for (size_t I = 0, E = Proc.Nodes.size(); I != E; ++I) {
    if (!Reachable[I])
      continue;
    Remap[I] = static_cast<NodeId>(Kept.size());
    Kept.push_back(std::move(Proc.Nodes[I]));
  }
  for (CfgNode &Node : Kept)
    for (CfgArc &Arc : Node.Arcs)
      Arc.Target = Remap[Arc.Target];
  Proc.Nodes = std::move(Kept);
  Proc.Entry = Remap[Proc.Entry];
  assert(Proc.Entry == 0 && "entry must remain node 0");
}

CfgNode CfgNode::clone() const {
  CfgNode Copy;
  Copy.Kind = Kind;
  Copy.Loc = Loc;
  if (Target)
    Copy.Target = Target->clone();
  if (Value)
    Copy.Value = Value->clone();
  Copy.Callee = Callee;
  Copy.Builtin = Builtin;
  Copy.Args.reserve(Args.size());
  for (const ExprPtr &Arg : Args)
    Copy.Args.push_back(Arg->clone());
  Copy.TossBound = TossBound;
  Copy.Arcs = Arcs;
  return Copy;
}

bool ProcCfg::isParam(const std::string &VarName) const {
  for (const std::string &P : Params)
    if (P == VarName)
      return true;
  return false;
}

bool ProcCfg::isLocal(const std::string &VarName) const {
  for (const LocalVar &L : Locals)
    if (L.Name == VarName)
      return true;
  return false;
}

int ProcCfg::paramIndex(const std::string &VarName) const {
  for (size_t I = 0, E = Params.size(); I != E; ++I)
    if (Params[I] == VarName)
      return static_cast<int>(I);
  return -1;
}

ProcCfg ProcCfg::clone() const {
  ProcCfg Copy;
  Copy.Name = Name;
  Copy.Params = Params;
  Copy.Locals = Locals;
  Copy.Entry = Entry;
  Copy.Nodes.reserve(Nodes.size());
  for (const CfgNode &N : Nodes)
    Copy.Nodes.push_back(N.clone());
  return Copy;
}

const ProcCfg *Module::findProc(const std::string &Name) const {
  for (const ProcCfg &P : Procs)
    if (P.Name == Name)
      return &P;
  return nullptr;
}

ProcCfg *Module::findProc(const std::string &Name) {
  for (ProcCfg &P : Procs)
    if (P.Name == Name)
      return &P;
  return nullptr;
}

int Module::procIndex(const std::string &Name) const {
  for (size_t I = 0, E = Procs.size(); I != E; ++I)
    if (Procs[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

ProcIndex::ProcIndex(const Module &Mod) : Mod(Mod) {
  Index.reserve(Mod.Procs.size());
  for (size_t I = 0, E = Mod.Procs.size(); I != E; ++I)
    Index.emplace(Mod.Procs[I].Name, static_cast<int>(I));
}

const CommDecl *Module::findComm(const std::string &Name) const {
  for (const CommDecl &C : Comms)
    if (C.Name == Name)
      return &C;
  return nullptr;
}

int Module::commIndex(const std::string &Name) const {
  for (size_t I = 0, E = Comms.size(); I != E; ++I)
    if (Comms[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

const GlobalDecl *Module::findGlobal(const std::string &Name) const {
  for (const GlobalDecl &G : Globals)
    if (G.Name == Name)
      return &G;
  return nullptr;
}

size_t Module::totalNodes() const {
  size_t Total = 0;
  for (const ProcCfg &P : Procs)
    Total += P.Nodes.size();
  return Total;
}

Module Module::clone() const {
  Module Copy;
  Copy.Comms = Comms;
  Copy.Globals = Globals;
  Copy.Processes = Processes;
  Copy.Procs.reserve(Procs.size());
  for (const ProcCfg &P : Procs)
    Copy.Procs.push_back(P.clone());
  return Copy;
}
