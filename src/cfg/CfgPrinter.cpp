//===- CfgPrinter.cpp - CFG listings, dot dumps, source emission -----------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgPrinter.h"

#include "lang/PrettyPrinter.h"

#include <cassert>
#include <string>

using namespace closer;

namespace {

std::string nodeLabel(NodeId Id) {
  std::string Out = "N";
  Out += std::to_string(Id);
  return Out;
}

/// Appends "[N]" for an array of N elements, nothing for a scalar (-1).
void appendArraySize(std::string &Out, int64_t Size) {
  if (Size < 0)
    return;
  Out += '[';
  Out += std::to_string(Size);
  Out += ']';
}

std::string arcText(const CfgArc &Arc) {
  switch (Arc.Kind) {
  case ArcKind::Always:
    return "-> " + nodeLabel(Arc.Target);
  case ArcKind::IfTrue:
    return "true -> " + nodeLabel(Arc.Target);
  case ArcKind::IfFalse:
    return "false -> " + nodeLabel(Arc.Target);
  case ArcKind::CaseEq:
    return "case " + std::to_string(Arc.Value) + " -> " +
           nodeLabel(Arc.Target);
  case ArcKind::CaseDefault:
    return "default -> " + nodeLabel(Arc.Target);
  case ArcKind::TossEq:
    return "toss==" + std::to_string(Arc.Value) + " -> " +
           nodeLabel(Arc.Target);
  }
  return "?";
}

std::string nodeText(const CfgNode &Node) {
  switch (Node.Kind) {
  case CfgNodeKind::Start:
    return "start";
  case CfgNodeKind::Assign:
    return printExpr(Node.Target.get()) + " = " + printExpr(Node.Value.get());
  case CfgNodeKind::Branch:
    return "branch (" + printExpr(Node.Value.get()) + ")";
  case CfgNodeKind::Switch:
    return "switch (" + printExpr(Node.Value.get()) + ")";
  case CfgNodeKind::Call: {
    std::string Out;
    if (Node.Target)
      Out += printExpr(Node.Target.get()) + " = ";
    Out += Node.Callee + "(";
    for (size_t I = 0, E = Node.Args.size(); I != E; ++I) {
      if (I)
        Out += ", ";
      Out += printExpr(Node.Args[I].get());
    }
    return Out + ")";
  }
  case CfgNodeKind::TossBranch:
    return "toss-branch VS_toss(" + std::to_string(Node.TossBound) + ")";
  case CfgNodeKind::Return:
    return "return";
  }
  return "<bad-node>";
}

} // namespace

std::string closer::printCfg(const ProcCfg &Proc) {
  std::string Out = "proc " + Proc.Name + "(";
  for (size_t I = 0, E = Proc.Params.size(); I != E; ++I) {
    if (I)
      Out += ", ";
    Out += Proc.Params[I];
  }
  Out += ")\n";
  for (size_t I = 0, E = Proc.Nodes.size(); I != E; ++I) {
    const CfgNode &Node = Proc.Nodes[I];
    Out += "  " + nodeLabel(static_cast<NodeId>(I)) + ": " + nodeText(Node);
    if (!Node.Arcs.empty()) {
      Out += "  [";
      for (size_t A = 0, AE = Node.Arcs.size(); A != AE; ++A) {
        if (A)
          Out += "; ";
        Out += arcText(Node.Arcs[A]);
      }
      Out += "]";
    }
    Out += "\n";
  }
  return Out;
}

std::string closer::printModule(const Module &Mod) {
  std::string Out;
  for (const CommDecl &C : Mod.Comms) {
    switch (C.Kind) {
    case CommKind::Channel:
      Out += "chan " + C.Name + "[" + std::to_string(C.Param) + "]\n";
      break;
    case CommKind::Semaphore:
      Out += "sem " + C.Name + "(" + std::to_string(C.Param) + ")\n";
      break;
    case CommKind::SharedVar:
      Out += "shared " + C.Name + " = " + std::to_string(C.Param) + "\n";
      break;
    }
  }
  for (const GlobalDecl &G : Mod.Globals) {
    Out += "var " + G.Name;
    appendArraySize(Out, G.ArraySize);
    Out += "\n";
  }
  for (const ProcCfg &P : Mod.Procs)
    Out += printCfg(P);
  for (const ProcessDecl &P : Mod.Processes) {
    Out += "process " + P.Name + " = " + P.ProcName + "(";
    for (size_t I = 0, E = P.Args.size(); I != E; ++I) {
      if (I)
        Out += ", ";
      Out += P.Args[I].IsEnv ? "env" : std::to_string(P.Args[I].Value);
    }
    Out += ")\n";
  }
  return Out;
}

std::string closer::cfgToDot(const ProcCfg &Proc) {
  std::string Out = "digraph \"" + Proc.Name + "\" {\n";
  Out += "  node [shape=box, fontname=\"monospace\"];\n";
  for (size_t I = 0, E = Proc.Nodes.size(); I != E; ++I) {
    const CfgNode &Node = Proc.Nodes[I];
    std::string Label = nodeText(Node);
    // Escape quotes for dot.
    std::string Escaped;
    for (char C : Label) {
      if (C == '"')
        Escaped += '\\';
      Escaped += C;
    }
    Out += "  " + nodeLabel(static_cast<NodeId>(I)) + " [label=\"" + Escaped +
           "\"";
    if (Node.Kind == CfgNodeKind::TossBranch)
      Out += ", style=dashed";
    Out += "];\n";
    for (const CfgArc &Arc : Node.Arcs) {
      Out += "  " + nodeLabel(static_cast<NodeId>(I)) + " -> " +
             nodeLabel(Arc.Target);
      switch (Arc.Kind) {
      case ArcKind::Always:
        break;
      case ArcKind::IfTrue:
        Out += " [label=\"T\"]";
        break;
      case ArcKind::IfFalse:
        Out += " [label=\"F\"]";
        break;
      case ArcKind::CaseEq:
        Out += " [label=\"=" + std::to_string(Arc.Value) + "\"]";
        break;
      case ArcKind::CaseDefault:
        Out += " [label=\"dflt\"]";
        break;
      case ArcKind::TossEq:
        Out += " [label=\"toss=" + std::to_string(Arc.Value) + "\"]";
        break;
      }
      Out += ";\n";
    }
  }
  return Out + "}\n";
}

//===----------------------------------------------------------------------===//
// Source emission (goto normal form)
//===----------------------------------------------------------------------===//

namespace {

std::string gotoLabel(NodeId Id) { return "__N" + std::to_string(Id); }

std::string gotoText(NodeId Target) {
  if (Target == InvalidNode)
    return "halt();"; // Successor eliminated by closing: park forever.
  return "goto " + gotoLabel(Target) + ";";
}

void emitProcSource(const ProcCfg &Proc, std::string &Out) {
  Out += "proc " + Proc.Name + "(";
  for (size_t I = 0, E = Proc.Params.size(); I != E; ++I) {
    if (I)
      Out += ", ";
    Out += Proc.Params[I];
  }
  Out += ") {\n";
  for (const LocalVar &L : Proc.Locals) {
    Out += "  var " + L.Name;
    appendArraySize(Out, L.ArraySize);
    Out += ";\n";
  }
  // Fresh temporaries for TossBranch nodes.
  for (size_t I = 0, E = Proc.Nodes.size(); I != E; ++I)
    if (Proc.Nodes[I].Kind == CfgNodeKind::TossBranch)
      Out += "  var __toss" + std::to_string(I) + ";\n";

  auto AlwaysSucc = [](const CfgNode &Node) -> NodeId {
    return Node.Arcs.empty() ? InvalidNode : Node.Arcs[0].Target;
  };

  for (size_t I = 0, E = Proc.Nodes.size(); I != E; ++I) {
    const CfgNode &Node = Proc.Nodes[I];
    std::string Line = "  " + gotoLabel(static_cast<NodeId>(I)) + ": ";
    switch (Node.Kind) {
    case CfgNodeKind::Start:
      Line += gotoText(AlwaysSucc(Node));
      break;
    case CfgNodeKind::Assign:
      Line += printExpr(Node.Target.get()) + " = " +
              printExpr(Node.Value.get()) + "; " + gotoText(AlwaysSucc(Node));
      break;
    case CfgNodeKind::Call: {
      std::string CallText;
      if (Node.Target)
        CallText += printExpr(Node.Target.get()) + " = ";
      CallText += Node.Callee + "(";
      for (size_t A = 0, AE = Node.Args.size(); A != AE; ++A) {
        if (A)
          CallText += ", ";
        CallText += printExpr(Node.Args[A].get());
      }
      CallText += ")";
      Line += CallText + "; " + gotoText(AlwaysSucc(Node));
      break;
    }
    case CfgNodeKind::Branch: {
      assert(Node.Arcs.size() == 2 && "verified branch shape");
      Line += "if (" + printExpr(Node.Value.get()) + ") " +
              gotoText(Node.Arcs[0].Target) + " " +
              gotoText(Node.Arcs[1].Target);
      break;
    }
    case CfgNodeKind::Switch: {
      Line += "switch (" + printExpr(Node.Value.get()) + ") {";
      for (const CfgArc &Arc : Node.Arcs) {
        if (Arc.Kind == ArcKind::CaseEq)
          Line += " case " + std::to_string(Arc.Value) + ": " +
                  gotoText(Arc.Target);
        else
          Line += " default: " + gotoText(Arc.Target);
      }
      Line += " }";
      break;
    }
    case CfgNodeKind::TossBranch: {
      std::string Tmp = "__toss" + std::to_string(I);
      Line += Tmp + " = VS_toss(" + std::to_string(Node.TossBound) + ");";
      // The last outcome is the fallthrough; the others test explicitly.
      for (size_t A = 0, AE = Node.Arcs.size(); A != AE; ++A) {
        const CfgArc &Arc = Node.Arcs[A];
        if (A + 1 == AE) {
          Line += " " + gotoText(Arc.Target);
        } else {
          Line += " if (" + Tmp + " == " + std::to_string(Arc.Value) + ") " +
                  gotoText(Arc.Target);
        }
      }
      break;
    }
    case CfgNodeKind::Return:
      Line += "return;";
      break;
    }
    Out += Line + "\n";
  }
  Out += "}\n\n";
}

} // namespace

std::string closer::emitModuleSource(const Module &Mod) {
  std::string Out;
  for (const CommDecl &C : Mod.Comms) {
    switch (C.Kind) {
    case CommKind::Channel:
      Out += "chan " + C.Name + "[" + std::to_string(C.Param) + "];\n";
      break;
    case CommKind::Semaphore:
      Out += "sem " + C.Name + "(" + std::to_string(C.Param) + ");\n";
      break;
    case CommKind::SharedVar:
      Out += "shared " + C.Name + " = " + std::to_string(C.Param) + ";\n";
      break;
    }
  }
  for (const GlobalDecl &G : Mod.Globals) {
    Out += "var " + G.Name;
    appendArraySize(Out, G.ArraySize);
    if (G.ArraySize < 0 && G.Init) {
      Out += " = ";
      Out += std::to_string(G.Init);
    }
    Out += ";\n";
  }
  Out += "\n";
  for (const ProcCfg &P : Mod.Procs)
    emitProcSource(P, Out);
  for (const ProcessDecl &P : Mod.Processes) {
    Out += "process " + P.Name + " = " + P.ProcName + "(";
    for (size_t I = 0, E = P.Args.size(); I != E; ++I) {
      if (I)
        Out += ", ";
      Out += P.Args[I].IsEnv ? "env" : std::to_string(P.Args[I].Value);
    }
    Out += ");\n";
  }
  return Out;
}
