//===- NaiveClose.cpp - Naive most-general-environment closing -------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "envgen/NaiveClose.h"

#include <cassert>
#include <string>

using namespace closer;

/// Name of the sink local absorbing env_output payloads.
static const char *envSinkName() { return "__envsink"; }

/// Name of the wrapper local a0..aN holding argument \p A.
static std::string argLocalName(size_t A) {
  std::string Name = "a";
  Name += std::to_string(A);
  return Name;
}

Module closer::naiveCloseModule(const Module &Mod,
                                const NaiveCloseOptions &Options,
                                NaiveCloseStats *Stats) {
  NaiveCloseStats Local;
  NaiveCloseStats &S = Stats ? *Stats : Local;

  Module Out = Mod.clone();

  // Rewrite env_input / env_output nodes in place.
  for (ProcCfg &Proc : Out.Procs) {
    bool NeedsSink = false;
    for (CfgNode &Node : Proc.Nodes) {
      if (Node.Kind != CfgNodeKind::Call)
        continue;
      if (Node.Builtin == BuiltinKind::EnvInput) {
        Node.Builtin = BuiltinKind::VsToss;
        Node.Callee = "VS_toss";
        Node.Args.clear();
        Node.Args.push_back(Expr::intLit(Options.DomainBound, Node.Loc));
        ++S.EnvInputsRewritten;
        continue;
      }
      if (Node.Builtin == BuiltinKind::EnvOutput) {
        // E_S accepts any output: turn the emission into a sink assignment
        // so the payload expression is still evaluated.
        CfgNode Replacement;
        Replacement.Kind = CfgNodeKind::Assign;
        Replacement.Loc = Node.Loc;
        Replacement.Target = Expr::varRef(envSinkName(), Node.Loc);
        Replacement.Value = Node.Args[0]->clone();
        Replacement.Arcs = Node.Arcs;
        Node = std::move(Replacement);
        NeedsSink = true;
        ++S.EnvOutputsRewritten;
      }
    }
    if (NeedsSink && !Proc.isLocal(envSinkName()))
      Proc.Locals.push_back({envSinkName(), -1});
  }

  // Wrap processes that receive environment-provided arguments.
  for (ProcessDecl &Inst : Out.Processes) {
    bool HasEnvArg = false;
    for (const ProcessArg &Arg : Inst.Args)
      HasEnvArg |= Arg.IsEnv;
    if (!HasEnvArg)
      continue;

    [[maybe_unused]] const ProcCfg *Target = Out.findProc(Inst.ProcName);
    assert(Target && "verified module");

    ProcCfg Wrapper;
    Wrapper.Name = "__env_" + Inst.Name;
    // Locals a0..aN hold the argument values.
    for (size_t A = 0, AE = Inst.Args.size(); A != AE; ++A)
      Wrapper.Locals.push_back({argLocalName(A), -1});

    CfgNode Start;
    Start.Kind = CfgNodeKind::Start;
    Start.Arcs.push_back({ArcKind::Always, 0, 1});
    Wrapper.Nodes.push_back(std::move(Start));

    NodeId Next = 1;
    for (size_t A = 0, AE = Inst.Args.size(); A != AE; ++A) {
      CfgNode Init;
      Init.Loc = Inst.Loc;
      Init.Target = Expr::varRef(argLocalName(A));
      if (Inst.Args[A].IsEnv) {
        Init.Kind = CfgNodeKind::Call;
        Init.Callee = "VS_toss";
        Init.Builtin = BuiltinKind::VsToss;
        Init.Args.push_back(Expr::intLit(Options.DomainBound));
      } else {
        Init.Kind = CfgNodeKind::Assign;
        Init.Value = Expr::intLit(Inst.Args[A].Value);
      }
      Init.Arcs.push_back({ArcKind::Always, 0, Next + 1});
      Wrapper.Nodes.push_back(std::move(Init));
      ++Next;
    }

    CfgNode CallNode;
    CallNode.Kind = CfgNodeKind::Call;
    CallNode.Loc = Inst.Loc;
    CallNode.Callee = Inst.ProcName;
    CallNode.Builtin = BuiltinKind::None;
    for (size_t A = 0, AE = Inst.Args.size(); A != AE; ++A)
      CallNode.Args.push_back(Expr::varRef(argLocalName(A)));
    CallNode.Arcs.push_back({ArcKind::Always, 0, Next + 1});
    Wrapper.Nodes.push_back(std::move(CallNode));

    CfgNode Ret;
    Ret.Kind = CfgNodeKind::Return;
    Wrapper.Nodes.push_back(std::move(Ret));

    Out.Procs.push_back(std::move(Wrapper));
    Inst.ProcName = Out.Procs.back().Name;
    Inst.Args.clear();
    ++S.WrappersSynthesized;
  }

  return Out;
}
