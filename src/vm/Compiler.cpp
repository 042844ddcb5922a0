//===- Compiler.cpp - Module -> bytecode lowering ----------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// Lowers every procedure of a (verified, closed) Module to the register
// bytecode of Bytecode.h. The contract is exact observational equivalence
// with the tree-walking interpreter in System.cpp: the same store writes,
// the same choice-provider call sequence, the same trace events, and the
// same errors (kind, message, source location) in the same order. Every
// deviation is a bug that the differential oracle (--exec=both) flags.
//
// Expression compilation uses a virtual register stack: each subexpression
// nets one register holding its value, so argument lists land contiguously
// and register pressure equals expression depth. Names are resolved at
// compile time against the shared buildModuleLayout() numbering; names the
// interpreter would fail on at runtime compile to Fail instructions with
// the interpreter's exact diagnostics.
//
//===----------------------------------------------------------------------===//

#include "vm/Bytecode.h"

#include <cassert>

using namespace closer;
using namespace closer::vm;

namespace {

// buildModuleLayout() clamps every offset to MaxProcessCells, so offsets
// fit the instructions' 32-bit operands exactly.
static_assert(MaxProcessCells <= INT32_MAX);

/// Static resolution of a variable name, mirroring the interpreter's
/// layout-then-globals order.
struct ResolvedSlot {
  enum class K { Local, Global, None } Kind = K::None;
  int32_t Idx = -1;    ///< Slot number (what an Address records).
  int32_t Offset = -1; ///< First cell (frame- or process-relative).
  int64_t ArraySize = -1;
};

class ProcCompiler {
public:
  ProcCompiler(const Module &Mod, const ModuleLayout &ML, CompiledModule &CM,
               int ProcIdx)
      : Mod(Mod), ML(ML), Layout(ML.Procs[ProcIdx]), CM(CM), ProcIdx(ProcIdx),
        Proc(Mod.Procs[ProcIdx]), Out(CM.Procs[ProcIdx]) {}

  void compile() {
    size_t N = Proc.Nodes.size();
    Out.NodeOffset.assign(N, -1);
    Out.BodyOffset.assign(N, -1);
    Out.RetCont.assign(N, -1);
    if (Layout.RetValSlot >= 0)
      Out.RetValOffset = static_cast<int32_t>(
          Layout.Offsets[static_cast<size_t>(Layout.RetValSlot)]);
    for (NodeId Id = 0; Id != N; ++Id)
      compileNode(Id);
    patch();
    if (MaxTop > CM.MaxRegs)
      CM.MaxRegs = MaxTop;
  }

private:
  const Module &Mod;
  const ModuleLayout &ML;
  const ProcLayout &Layout;
  CompiledModule &CM;
  int ProcIdx;
  const ProcCfg &Proc;
  CompiledProc &Out;

  uint32_t Top = 0, MaxTop = 0;

  struct Fixup {
    int32_t InstrIdx;
    bool IsImm; ///< Patch Imm instead of X.
    NodeId Target;
  };
  struct TableFixup {
    int32_t Table;
    int32_t Case; ///< -1 = default target.
    NodeId Target;
  };
  std::vector<Fixup> Fixups;
  std::vector<TableFixup> TableFixups;

  //===------------------------------------------------------------------===//
  // Emission primitives
  //===------------------------------------------------------------------===//

  int32_t emit(Op Code, uint16_t A = 0, uint16_t B = 0, uint16_t C = 0,
               int32_t X = 0, int64_t Imm = 0, SourceLoc Loc = SourceLoc()) {
    Instr I;
    I.Code = Code;
    I.A = A;
    I.B = B;
    I.C = C;
    I.X = X;
    I.Imm = Imm;
    CM.Code.push_back(I);
    CM.Locs.push_back(Loc);
    return static_cast<int32_t>(CM.Code.size() - 1);
  }

  uint16_t push() {
    assert(Top < 0xffff && "register file overflow");
    uint16_t R = static_cast<uint16_t>(Top++);
    if (Top > MaxTop)
      MaxTop = Top;
    return R;
  }
  void pop(uint32_t N = 1) {
    assert(Top >= N && "register stack underflow");
    Top -= N;
  }

  void emitFail(RunErrorKind Kind, std::string Message, SourceLoc Loc) {
    FailInfo F;
    F.Kind = Kind;
    F.Message = std::move(Message);
    F.Loc = Loc;
    CM.Fails.push_back(std::move(F));
    emit(Op::Fail, 0, 0, 0, static_cast<int32_t>(CM.Fails.size() - 1), 0, Loc);
  }

  void emitJmpTo(NodeId Target) {
    int32_t I = emit(Op::Jmp);
    Fixups.push_back({I, false, Target});
  }

  /// The interpreter's advanceAlways: follow the single Always arc or halt
  /// when the closing transformation dropped every successor.
  void emitAdvance(const CfgNode &Node) {
    if (Node.Arcs.empty()) {
      emit(Op::Halt);
      return;
    }
    emitJmpTo(Node.Arcs[0].Target);
  }

  ResolvedSlot resolveName(const std::string &Name) const {
    ResolvedSlot R;
    auto It = Layout.SlotOf.find(Name);
    if (It != Layout.SlotOf.end()) {
      R.Kind = ResolvedSlot::K::Local;
      R.Idx = static_cast<int32_t>(It->second);
      R.Offset = static_cast<int32_t>(Layout.Offsets[It->second]);
      R.ArraySize = Layout.ArraySizes[It->second];
      return R;
    }
    for (size_t I = 0, E = Mod.Globals.size(); I != E; ++I)
      if (Mod.Globals[I].Name == Name) {
        R.Kind = ResolvedSlot::K::Global;
        R.Idx = static_cast<int32_t>(I);
        R.Offset = static_cast<int32_t>(ML.GlobalOffsets[I]);
        R.ArraySize = Mod.Globals[I].ArraySize;
        return R;
      }
    return R;
  }

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  static Op binOp(BinaryOp B) {
    switch (B) {
    case BinaryOp::Add: return Op::Add;
    case BinaryOp::Sub: return Op::Sub;
    case BinaryOp::Mul: return Op::Mul;
    case BinaryOp::Div: return Op::Div;
    case BinaryOp::Mod: return Op::Mod;
    case BinaryOp::Lt:  return Op::Lt;
    case BinaryOp::Le:  return Op::Le;
    case BinaryOp::Gt:  return Op::Gt;
    case BinaryOp::Ge:  return Op::Ge;
    case BinaryOp::And: return Op::And;
    case BinaryOp::Or:  return Op::Or;
    case BinaryOp::Eq:  return Op::Eq;
    case BinaryOp::Ne:  return Op::Ne;
    }
    assert(false && "unhandled binary op");
    return Op::Add;
  }

  /// Immediate form consuming a right-hand literal, or false when the op
  /// has none (And/Or stay two-register; they are rare with literals).
  static bool immOpRhs(BinaryOp B, Op &Out) {
    switch (B) {
    case BinaryOp::Add: Out = Op::AddImm; return true;
    case BinaryOp::Sub: Out = Op::SubImm; return true;
    case BinaryOp::Mul: Out = Op::MulImm; return true;
    case BinaryOp::Div: Out = Op::DivImm; return true;
    case BinaryOp::Mod: Out = Op::ModImm; return true;
    case BinaryOp::Lt:  Out = Op::LtImm;  return true;
    case BinaryOp::Le:  Out = Op::LeImm;  return true;
    case BinaryOp::Gt:  Out = Op::GtImm;  return true;
    case BinaryOp::Ge:  Out = Op::GeImm;  return true;
    case BinaryOp::Eq:  Out = Op::EqImm;  return true;
    case BinaryOp::Ne:  Out = Op::NeImm;  return true;
    default: return false;
    }
  }

  /// Immediate form consuming a left-hand literal: commutative ops keep
  /// their form, comparisons flip (3 < b == b > 3). Sub/Div/Mod have no
  /// reversed form and stay unfused.
  static bool immOpLhs(BinaryOp B, Op &Out) {
    switch (B) {
    case BinaryOp::Add: Out = Op::AddImm; return true;
    case BinaryOp::Mul: Out = Op::MulImm; return true;
    case BinaryOp::Lt:  Out = Op::GtImm;  return true;
    case BinaryOp::Le:  Out = Op::GeImm;  return true;
    case BinaryOp::Gt:  Out = Op::LtImm;  return true;
    case BinaryOp::Ge:  Out = Op::LeImm;  return true;
    case BinaryOp::Eq:  Out = Op::EqImm;  return true;
    case BinaryOp::Ne:  Out = Op::NeImm;  return true;
    default: return false;
    }
  }

  /// Compiles the address of a VarRef/ArrayIndex place (the interpreter's
  /// addressOf): resolution errors fire before the index is evaluated.
  uint16_t compileAddrPlace(const Expr *Place) {
    ResolvedSlot R = resolveName(Place->Name);
    if (R.Kind == ResolvedSlot::K::None) {
      uint16_t Reg = push();
      emitFail(RunErrorKind::BadPointer,
               "address of unknown variable '" + Place->Name + "'",
               Place->Loc);
      return Reg;
    }
    if (Place->Kind == ExprKind::ArrayIndex) {
      uint16_t Idx = compileExpr(Place->Lhs.get());
      emit(R.Kind == ResolvedSlot::K::Local ? Op::AddrElemLocal
                                            : Op::AddrElemGlobal,
           Idx, Idx, 0, R.Idx, 0, Place->Loc);
      return Idx;
    }
    uint16_t Reg = push();
    emit(R.Kind == ResolvedSlot::K::Local ? Op::AddrLocal : Op::AddrGlobal,
         Reg, 0, 0, R.Idx, 0, Place->Loc);
    return Reg;
  }

  /// Compiles \p E into a fresh register (nets exactly one virtual-stack
  /// push), reproducing the interpreter's evaluation and error order.
  uint16_t compileExpr(const Expr *E) {
    switch (E->Kind) {
    case ExprKind::IntLit: {
      uint16_t R = push();
      emit(Op::LoadImm, R, 0, 0, 0, E->IntValue);
      return R;
    }
    case ExprKind::Unknown: {
      uint16_t R = push();
      emit(Op::LoadUnknown, R);
      return R;
    }
    case ExprKind::VarRef: {
      uint16_t R = push();
      ResolvedSlot S = resolveName(E->Name);
      if (S.Kind == ResolvedSlot::K::None) {
        emitFail(RunErrorKind::BadPointer,
                 "reference to unknown variable '" + E->Name + "'",
                 SourceLoc());
      } else if (S.ArraySize >= 0) {
        emitFail(RunErrorKind::BadPointer,
                 "array '" + E->Name + "' used as a scalar", SourceLoc());
      } else {
        emit(S.Kind == ResolvedSlot::K::Local ? Op::LoadLocal
                                              : Op::LoadGlobal,
             R, 0, 0, S.Offset);
      }
      return R;
    }
    case ExprKind::ArrayIndex: {
      uint16_t A = compileAddrPlace(E);
      emit(Op::LoadAt, A, A);
      return A;
    }
    case ExprKind::AddrOf:
      return compileAddrPlace(E->Lhs.get());
    case ExprKind::Deref: {
      uint16_t R = compileExpr(E->Lhs.get());
      emit(Op::Deref, R, R, 0, 0, 0, E->Loc);
      return R;
    }
    case ExprKind::Unary: {
      uint16_t R = compileExpr(E->Lhs.get());
      emit(E->UOp == UnaryOp::Neg ? Op::Neg : Op::Not, R, R, 0, 0, 0,
           E->Loc);
      return R;
    }
    case ExprKind::Binary: {
      // Fuse a literal operand into the instruction. Safe because a
      // literal evaluates without effects or errors, so the remaining
      // operand's evaluation (and the op's check order) is unchanged.
      Op ImmOp;
      if (E->Rhs->Kind == ExprKind::IntLit && immOpRhs(E->BOp, ImmOp)) {
        uint16_t L = compileExpr(E->Lhs.get());
        emit(ImmOp, L, L, 0, 0, E->Rhs->IntValue, E->Loc);
        return L;
      }
      if (E->Lhs->Kind == ExprKind::IntLit && immOpLhs(E->BOp, ImmOp)) {
        uint16_t R = compileExpr(E->Rhs.get());
        emit(ImmOp, R, R, 0, 0, E->Lhs->IntValue, E->Loc);
        return R;
      }
      uint16_t L = compileExpr(E->Lhs.get());
      uint16_t R = compileExpr(E->Rhs.get());
      emit(binOp(E->BOp), L, L, R, 0, 0, E->Loc);
      pop();
      return L;
    }
    case ExprKind::Call: {
      uint16_t R = push();
      emitFail(RunErrorKind::BadPointer,
               "call expression reached the evaluator (lowering bug)",
               E->Loc);
      return R;
    }
    }
    assert(false && "unhandled expression kind");
    return 0;
  }

  /// Compiles a store of register \p Src into lvalue \p Lvalue (nets zero).
  void compileStore(const Expr *Lvalue, uint16_t Src) {
    switch (Lvalue->Kind) {
    case ExprKind::VarRef: {
      ResolvedSlot S = resolveName(Lvalue->Name);
      if (S.Kind == ResolvedSlot::K::None) {
        emitFail(RunErrorKind::BadPointer,
                 "assignment to unknown variable '" + Lvalue->Name + "'",
                 Lvalue->Loc);
        return;
      }
      if (S.ArraySize >= 0) {
        emitFail(RunErrorKind::BadPointer, "cannot assign to whole array",
                 Lvalue->Loc);
        return;
      }
      emit(S.Kind == ResolvedSlot::K::Local ? Op::StoreLocal
                                            : Op::StoreGlobal,
           Src, 0, 0, S.Offset);
      return;
    }
    case ExprKind::ArrayIndex: {
      uint16_t A = compileAddrPlace(Lvalue);
      emit(Op::StoreAt, A, Src);
      pop();
      return;
    }
    case ExprKind::Deref: {
      uint16_t P = compileExpr(Lvalue->Lhs.get());
      emit(Op::StoreDeref, P, Src, 0, 0, 0, Lvalue->Loc);
      pop();
      return;
    }
    default:
      emitFail(RunErrorKind::BadPointer, "invalid assignment target",
               Lvalue->Loc);
    }
  }

  //===------------------------------------------------------------------===//
  // Nodes
  //===------------------------------------------------------------------===//

  int32_t addVisInfo(const CfgNode &Node) {
    VisInfo V;
    V.Kind = Node.Builtin;
    if (builtinInfo(Node.Builtin).TakesObject && !Node.Args.empty()) {
      V.Object = Node.Args[0]->Name;
      V.CommIdx = Mod.commIndex(V.Object);
      assert(V.CommIdx >= 0 && "verified module");
    }
    CM.Vis.push_back(std::move(V));
    return static_cast<int32_t>(CM.Vis.size() - 1);
  }

  void compileVisibleBody(NodeId Id, const CfgNode &Node) {
    Out.BodyOffset[Id] = static_cast<int32_t>(CM.Code.size());
    int32_t VI = addVisInfo(Node);
    switch (Node.Builtin) {
    case BuiltinKind::Send: {
      uint16_t R = compileExpr(Node.Args[1].get());
      emit(Op::SendV, R, 0, 0, VI);
      emit(Op::EventPay, R, 0, 0, VI);
      pop();
      break;
    }
    case BuiltinKind::Recv: {
      uint16_t R = push();
      emit(Op::RecvV, R, 0, 0, VI);
      if (Node.Target)
        compileStore(Node.Target.get(), R);
      emit(Op::EventPay, R, 0, 0, VI);
      pop();
      break;
    }
    case BuiltinKind::SemWait:
      emit(Op::SemWaitV, 0, 0, 0, VI);
      emit(Op::EventNoPay, 0, 0, 0, VI);
      break;
    case BuiltinKind::SemSignal:
      emit(Op::SemSignalV, 0, 0, 0, VI);
      emit(Op::EventNoPay, 0, 0, 0, VI);
      break;
    case BuiltinKind::SharedWrite: {
      uint16_t R = compileExpr(Node.Args[1].get());
      emit(Op::SharedWriteV, R, 0, 0, VI);
      emit(Op::EventPay, R, 0, 0, VI);
      pop();
      break;
    }
    case BuiltinKind::SharedRead: {
      uint16_t R = push();
      emit(Op::SharedReadV, R, 0, 0, VI);
      if (Node.Target)
        compileStore(Node.Target.get(), R);
      emit(Op::EventPay, R, 0, 0, VI);
      pop();
      break;
    }
    case BuiltinKind::VsAssert: {
      uint16_t R = compileExpr(Node.Args[0].get());
      emit(Op::AssertV, R, 0, 0, VI, 0, Node.Loc);
      emit(Op::EventPay, R, 0, 0, VI);
      pop();
      break;
    }
    case BuiltinKind::Halt:
      // Never enabled, so the body is unreachable; park defensively.
      emit(Op::Halt);
      return;
    default:
      assert(false && "not a visible operation");
    }
    emit(Op::EndVis);
    emitAdvance(Node);
  }

  void compileCall(NodeId Id, const CfgNode &Node) {
    switch (Node.Builtin) {
    case BuiltinKind::VsToss: {
      uint16_t B = compileExpr(Node.Args[0].get());
      emit(Op::TossVal, B, B, 0, 0, 0, Node.Loc);
      if (Node.Target)
        compileStore(Node.Target.get(), B);
      pop();
      emitAdvance(Node);
      return;
    }
    case BuiltinKind::EnvInput: {
      uint16_t R = push();
      emit(Op::EnvVal, R, 0, 0, 0, 0, Node.Loc);
      if (Node.Target)
        compileStore(Node.Target.get(), R);
      pop();
      emitAdvance(Node);
      return;
    }
    case BuiltinKind::EnvOutput: {
      uint16_t R = compileExpr(Node.Args[0].get());
      (void)R;
      pop();
      emitAdvance(Node);
      return;
    }
    case BuiltinKind::None: {
      int CalleeIdx = Mod.procIndex(Node.Callee);
      assert(CalleeIdx >= 0 && "verified module");
      CallSite CS;
      CS.CalleeIdx = CalleeIdx;
      CS.NArgs = static_cast<int32_t>(Node.Args.size());
      CS.ArgBase = static_cast<int32_t>(Top);
      CS.CallNode = Id;
      CS.EntryNode = Mod.Procs[CalleeIdx].Entry;
      CS.FrameCells = ML.Procs[CalleeIdx].Cells;
      CM.Calls.push_back(CS);
      int32_t CSIdx = static_cast<int32_t>(CM.Calls.size() - 1);
      emit(Op::CallPre, 0, 0, 0, CSIdx, 0, Node.Loc);
      for (const ExprPtr &Arg : Node.Args)
        compileExpr(Arg.get());
      emit(Op::CallPush, 0, 0, 0, CSIdx, 0, Node.Loc);
      pop(static_cast<uint32_t>(Node.Args.size()));
      // Return continuation: the Ret handler resumes here through the
      // caller frame's PC (parked at this call node).
      Out.RetCont[Id] = static_cast<int32_t>(CM.Code.size());
      if (Node.Target) {
        uint16_t R = push();
        emit(Op::LoadRet, R);
        compileStore(Node.Target.get(), R);
        pop();
      }
      emitAdvance(Node);
      return;
    }
    default:
      assert(false && "visible builtins handled by compileVisibleBody");
    }
  }

  void compileNode(NodeId Id) {
    const CfgNode &Node = Proc.Nodes[Id];
    Out.NodeOffset[Id] = static_cast<int32_t>(CM.Code.size());
    emit(Op::Tick);
    assert(Top == 0 && "register stack must be empty between nodes");

    switch (Node.Kind) {
    case CfgNodeKind::Start:
      emitAdvance(Node);
      break;

    case CfgNodeKind::Assign: {
      uint16_t R = compileExpr(Node.Value.get());
      compileStore(Node.Target.get(), R);
      pop();
      emitAdvance(Node);
      break;
    }

    case CfgNodeKind::Branch: {
      uint16_t R = compileExpr(Node.Value.get());
      int32_t I = emit(Op::BrTruthy, R, 0, 0, -1, -1, Node.Loc);
      Fixups.push_back({I, false, Node.Arcs[0].Target});
      Fixups.push_back({I, true, Node.Arcs[1].Target});
      pop();
      break;
    }

    case CfgNodeKind::Switch: {
      uint16_t R = compileExpr(Node.Value.get());
      JumpTable T;
      int32_t TIdx = static_cast<int32_t>(CM.Tables.size());
      for (const CfgArc &Arc : Node.Arcs) {
        if (Arc.Kind == ArcKind::CaseEq) {
          TableFixups.push_back(
              {TIdx, static_cast<int32_t>(T.Cases.size()), Arc.Target});
          T.Cases.push_back({Arc.Value, -1});
        } else if (Arc.Kind == ArcKind::CaseDefault) {
          TableFixups.push_back({TIdx, -1, Arc.Target});
        }
      }
      CM.Tables.push_back(std::move(T));
      emit(Op::Switch, R, 0, 0, TIdx, 0, Node.Loc);
      pop();
      break;
    }

    case CfgNodeKind::TossBranch: {
      if (Node.TossBound < 0) {
        emitFail(RunErrorKind::BadTossBound,
                 "toss branch bound must be a nonnegative integer", Node.Loc);
        break;
      }
      JumpTable T;
      int32_t TIdx = static_cast<int32_t>(CM.Tables.size());
      for (const CfgArc &Arc : Node.Arcs) {
        TableFixups.push_back(
            {TIdx, static_cast<int32_t>(T.Cases.size()), Arc.Target});
        T.Cases.push_back({Arc.Value, -1});
      }
      CM.Tables.push_back(std::move(T));
      emit(Op::TossBr, 0, 0, 0, TIdx, Node.TossBound, Node.Loc);
      break;
    }

    case CfgNodeKind::Return:
      emit(Op::Ret);
      break;

    case CfgNodeKind::Call:
      if (Node.isVisibleOp()) {
        emit(Op::AtVisible, 0, 0, 0, static_cast<int32_t>(Id));
        compileVisibleBody(Id, Node);
      } else {
        compileCall(Id, Node);
      }
      break;
    }
    assert(Top == 0 && "register stack must drain at node end");
  }

  void patch() {
    for (const Fixup &F : Fixups) {
      int32_t Offset = Out.NodeOffset[F.Target];
      assert(Offset >= 0 && "jump to unemitted node");
      if (F.IsImm)
        CM.Code[F.InstrIdx].Imm = Offset;
      else
        CM.Code[F.InstrIdx].X = Offset;
    }
    for (const TableFixup &F : TableFixups) {
      int32_t Offset = Out.NodeOffset[F.Target];
      assert(Offset >= 0 && "jump to unemitted node");
      if (F.Case < 0)
        CM.Tables[F.Table].DefaultTarget = Offset;
      else
        CM.Tables[F.Table].Cases[F.Case].Target = Offset;
    }
  }
};

} // namespace

std::shared_ptr<const CompiledModule> vm::compileModule(const Module &Mod) {
  auto CM = std::make_shared<CompiledModule>();
  ModuleLayout Layout = buildModuleLayout(Mod);
  CM->Procs.resize(Mod.Procs.size());
  for (size_t P = 0, E = Mod.Procs.size(); P != E; ++P)
    ProcCompiler(Mod, Layout, *CM, static_cast<int>(P)).compile();
  if (CM->MaxRegs == 0)
    CM->MaxRegs = 1;
  // Resolve cross-procedure call entries now that every offset is known.
  for (CallSite &CS : CM->Calls)
    CS.EntryOffset = CM->Procs[CS.CalleeIdx].NodeOffset[CS.EntryNode];
  return CM;
}

std::string vm::disassemble(const CompiledModule &CM) {
  static const char *Names[] = {
      "tick",   "at_visible", "halt",      "jmp",       "fail",
      "limm",   "lunk",       "lret",      "lloc",      "lglob",
      "sloc",   "sglob",      "aloc",      "aglob",     "aeloc",
      "aeglob", "ldat",       "stat",      "deref",     "stderef",
      "add",    "sub",        "mul",       "div",       "mod",
      "lt",     "le",         "gt",        "ge",        "and",
      "or",     "eq",         "ne",        "addi",      "subi",
      "muli",   "divi",       "modi",      "lti",       "lei",
      "gti",    "gei",        "eqi",       "nei",       "neg",
      "not",
      "br",     "switch",     "tossbr",    "tossval",   "envval",
      "callpre", "callpush",  "ret",       "send",      "recv",
      "semwait", "semsignal", "shwrite",   "shread",    "assert",
      "evpay",  "evnopay",    "endvis"};
  std::string S;
  for (size_t I = 0, E = CM.Code.size(); I != E; ++I) {
    const Instr &In = CM.Code[I];
    S += std::to_string(I) + ": " + Names[static_cast<size_t>(In.Code)] +
         " a=" + std::to_string(In.A) + " b=" + std::to_string(In.B) +
         " c=" + std::to_string(In.C) + " x=" + std::to_string(In.X) +
         " imm=" + std::to_string(In.Imm) + "\n";
  }
  return S;
}
