//===- System.cpp - Concurrent-system runtime --------------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "runtime/System.h"

#include "runtime/Arith.h"

#include <algorithm>
#include <cassert>

using namespace closer;

std::string RunError::str() const {
  if (Kind == RunErrorKind::None)
    return "no error";
  std::string Out = "process " + std::to_string(Process) + ": " + Message;
  if (Loc.isValid())
    Out += " at " + Loc.str();
  return Out;
}

//===----------------------------------------------------------------------===//
// Construction and reset
//===----------------------------------------------------------------------===//

ModuleLayout closer::buildModuleLayout(const Module &Mod) {
  // Sizes saturate (addCells) and offsets are clamped to MaxProcessCells,
  // so every offset fits the VM's 32-bit operands. A clamped offset is
  // never used: globals past the limit fail verification, and a frame past
  // it is never pushed (frameFits).
  ModuleLayout Out;
  for (const GlobalDecl &G : Mod.Globals) {
    Out.GlobalOffsets.push_back(std::min(Out.GlobalCells, MaxProcessCells));
    Out.GlobalCells = addCells(Out.GlobalCells, G.ArraySize);
  }
  Out.Procs.resize(Mod.Procs.size());
  for (size_t P = 0, E = Mod.Procs.size(); P != E; ++P) {
    const ProcCfg &Proc = Mod.Procs[P];
    ProcLayout &L = Out.Procs[P];
    auto AddSlot = [&](const std::string &Name, int64_t ArraySize) {
      L.SlotOf.emplace(Name, static_cast<uint32_t>(L.ArraySizes.size()));
      L.ArraySizes.push_back(ArraySize);
      L.Offsets.push_back(std::min(L.Cells, MaxProcessCells));
      L.Cells = addCells(L.Cells, ArraySize);
    };
    for (const std::string &Param : Proc.Params)
      AddSlot(Param, -1);
    for (const LocalVar &Local : Proc.Locals) {
      if (Local.Name == retValName())
        L.RetValSlot = static_cast<int>(L.ArraySizes.size());
      AddSlot(Local.Name, Local.ArraySize);
    }
  }
  return Out;
}

System::System(const Module &Mod, SystemOptions Options)
    : Mod(Mod), Options(Options), Layout(buildModuleLayout(Mod)) {
  assert(Layout.GlobalCells <= MaxProcessCells && "verified module");
  InitialGlobals.assign(Layout.GlobalCells, Value::makeInt(0));
  for (size_t G = 0, E = Mod.Globals.size(); G != E; ++G)
    if (Mod.Globals[G].ArraySize < 0)
      InitialGlobals[Layout.GlobalOffsets[G]] =
          Value::makeInt(Mod.Globals[G].Init);
  buildResolutionCaches();
  ZeroChoiceProvider Zero;
  reset(Zero);
}

//===----------------------------------------------------------------------===//
// Resolution caches
//===----------------------------------------------------------------------===//

void System::cacheExprTree(int ProcIdx, const Expr *E) {
  if (!E)
    return;
  if (E->Kind == ExprKind::VarRef || E->Kind == ExprKind::ArrayIndex) {
    const ProcLayout &L = Layout.Procs[static_cast<size_t>(ProcIdx)];
    auto It = L.SlotOf.find(E->Name);
    if (It != L.SlotOf.end()) {
      VarSlotCache.emplace(E, static_cast<int32_t>(It->second));
    } else {
      for (size_t I = 0, N = Mod.Globals.size(); I != N; ++I)
        if (Mod.Globals[I].Name == E->Name) {
          VarSlotCache.emplace(E, ~static_cast<int32_t>(I));
          break;
        }
      // Unresolvable names stay out of the cache, and execution reports
      // them: the owning procedure's frame is always on top when an Expr
      // runs, so a name the cache missed resolves to nothing then either.
    }
  }
  E->forEachChild([&](const Expr *Sub) { cacheExprTree(ProcIdx, Sub); });
}

void System::buildResolutionCaches() {
  NodeBase = nodeBases(Mod);
  NodeOps.assign(Mod.totalNodes(), NodeOp());
  for (size_t P = 0, E = Mod.Procs.size(); P != E; ++P) {
    int ProcIdx = static_cast<int>(P);
    const std::vector<CfgNode> &Nodes = Mod.Procs[P].Nodes;
    for (size_t Id = 0, NE = Nodes.size(); Id != NE; ++Id) {
      const CfgNode &Node = Nodes[Id];
      cacheExprTree(ProcIdx, Node.Target.get());
      cacheExprTree(ProcIdx, Node.Value.get());
      for (const ExprPtr &Arg : Node.Args)
        cacheExprTree(ProcIdx, Arg.get());
      // isVisibleOp() rules out user-procedure calls (Builtin == None),
      // which have no builtin descriptor.
      if (!Node.isVisibleOp())
        continue;
      NodeOp &Op = NodeOps[NodeBase[P] + Id];
      Op.Op = Node.Builtin;
      if (builtinInfo(Node.Builtin).TakesObject && !Node.Args.empty())
        Op.Obj = Mod.commIndex(Node.Args[0]->Name);
    }
  }
}

//===----------------------------------------------------------------------===//
// Channel storage
//===----------------------------------------------------------------------===//

void System::CommState::push(Value V) {
  if (Len == Ring.size()) {
    // Full: unroll the items, in order, into storage twice as large.
    std::vector<Value> Grown(Ring.empty() ? 4 : 2 * Ring.size());
    for (size_t I = 0; I != Len; ++I)
      Grown[I] = item(I);
    Ring.swap(Grown);
    Head = 0;
  }
  size_t Tail = Head + Len;
  Ring[Tail < Ring.size() ? Tail : Tail - Ring.size()] = V;
  ++Len;
}

Value System::CommState::pop() {
  assert(Len != 0 && "pop from an empty channel");
  Value V = Ring[Head];
  if (++Head == Ring.size())
    Head = 0;
  --Len;
  return V;
}

//===----------------------------------------------------------------------===//
// Checkpointing
//===----------------------------------------------------------------------===//

void System::snapshotLightInto(SystemSnapshot &S) const {
  // Copy-assignment into a reused snapshot reuses the nested vectors'
  // capacity element-wise.
  S.Processes = Processes;
  S.Comms = Comms;
  S.EventTrace.clear(); // Keeps capacity; a light snapshot carries no trace.
  S.TraceLen = EventTrace.size();
  S.HasTrace = false;
  S.NumTransitions = NumTransitions;
}

void System::materializeTraceInto(const SystemSnapshot &Light,
                                  SystemSnapshot &Out) const {
  Out.Processes = Light.Processes;
  Out.Comms = Light.Comms;
  Out.TraceLen = Light.TraceLen;
  Out.NumTransitions = Light.NumTransitions;
  if (Light.HasTrace) {
    Out.EventTrace = Light.EventTrace;
  } else {
    assert(EventTrace.size() >= Light.TraceLen &&
           "light snapshot outlived its capture path");
    Out.EventTrace.assign(EventTrace.begin(),
                          EventTrace.begin() +
                              static_cast<ptrdiff_t>(Light.TraceLen));
  }
  Out.HasTrace = true;
}

void System::restore(const SystemSnapshot &S) {
  Processes = S.Processes;
  Comms = S.Comms;
  if (S.HasTrace) {
    EventTrace = S.EventTrace;
  } else {
    // Same-path contract (see SystemSnapshot): the live trace still starts
    // with the events that were in place at capture time, so rewinding is
    // a truncation — no copy of the O(depth) prefix needed.
    assert(EventTrace.size() >= S.TraceLen &&
           "light snapshot restored off its capture path");
    EventTrace.resize(S.TraceLen);
  }
  NumTransitions = S.NumTransitions;
  // Snapshots are taken at transition boundaries, where no error is in
  // flight and no process is mid-execution.
  PendingError = RunError();
  CurrentProcess = -1;
}

ExecResult System::reset(ChoiceProvider &Provider) {
  EventTrace.clear();
  NumTransitions = 0;
  PendingError = RunError();

  // Resized in place, so a System that is reset again and again keeps its
  // cell, frame and ring storage.
  Comms.resize(Mod.Comms.size());
  for (size_t I = 0, E = Mod.Comms.size(); I != E; ++I) {
    const CommDecl &Decl = Mod.Comms[I];
    CommState &S = Comms[I];
    S.Kind = Decl.Kind;
    S.Count = 0;
    S.Shared = Value();
    S.Head = S.Len = 0;
    switch (Decl.Kind) {
    case CommKind::Channel:
      break;
    case CommKind::Semaphore:
      S.Count = Decl.Param;
      break;
    case CommKind::SharedVar:
      S.Shared = Value::makeInt(Decl.Param);
      break;
    }
  }

  Processes.resize(Mod.Processes.size());
  ExecResult Result;
  for (size_t I = 0, E = Mod.Processes.size(); I != E; ++I) {
    const ProcessDecl &Inst = Mod.Processes[I];
    int ProcIdx = Mod.procIndex(Inst.ProcName);
    assert(ProcIdx >= 0 && "verified module");

    ProcessRT &P = Processes[I];
    P.Status = ProcStatus::Starting; // Until its prefix parks or halts it.
    P.Cells.assign(InitialGlobals.begin(), InitialGlobals.end());
    P.Frames.clear();
    CurrentProcess = static_cast<int>(I);
    const Frame *Main = pushFrame(P, ProcIdx, SourceLoc());
    if (!Main)
      continue; // The first prefix run reports the error.
    const uint32_t Base = Main->Base;
    // Bind process arguments: constants, or environment choices when the
    // module is still open. A negative environment domain (bad --env-domain
    // configuration) is reported rather than handed to the explorer, where
    // it would wrap into a huge option count.
    for (size_t A = 0, AE = Inst.Args.size(); A != AE; ++A) {
      int64_t V = Inst.Args[A].Value;
      if (Inst.Args[A].IsEnv) {
        if (Options.EnvDomainBound < 0)
          fail(RunErrorKind::BadTossBound, SourceLoc(),
               "environment domain bound must be a nonnegative integer");
        V = PendingError ? 0
                         : Provider.choose(ChoiceProvider::ChoiceKind::Env,
                                           Options.EnvDomainBound);
      }
      P.Cells[Base + A] = Value::makeInt(V);
    }
  }

  // Run every process's invisible prefix to its first visible operation,
  // reaching the initial global state s0.
  for (int PIdx = 0, E = processCount(); PIdx != E; ++PIdx) {
    ExecResult R = Engine ? Engine->runPrefix(*this, PIdx, Provider)
                          : runInvisible(PIdx, Provider);
    Result.Violations.insert(Result.Violations.end(), R.Violations.begin(),
                             R.Violations.end());
    if (!R.ok()) {
      Result.Error = R.Error;
      break;
    }
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Errors
//===----------------------------------------------------------------------===//

void System::fail(RunErrorKind Kind, SourceLoc Loc,
                  const std::string &Message) {
  if (PendingError)
    return; // Keep the first error.
  PendingError.Kind = Kind;
  PendingError.Process = CurrentProcess;
  PendingError.Loc = Loc;
  PendingError.Message = Message;
}

//===----------------------------------------------------------------------===//
// Store access
//===----------------------------------------------------------------------===//

System::SlotRef System::resolveSlot(ProcessRT &P, const Expr *E) {
  auto It = VarSlotCache.find(E);
  if (It == VarSlotCache.end())
    return {};
  int32_t Code = It->second;
  if (Code >= 0) {
    const Frame &F = P.Frames.back();
    const ProcLayout &L = Layout.Procs[static_cast<size_t>(F.ProcIdx)];
    size_t Slot = static_cast<size_t>(Code);
    return {P.Cells.data() + F.Base + L.Offsets[Slot], L.ArraySizes[Slot]};
  }
  size_t G = static_cast<size_t>(~Code);
  return {P.Cells.data() + Layout.GlobalOffsets[G], Mod.Globals[G].ArraySize};
}

Value System::loadVar(ProcessRT &P, const Expr *E) {
  SlotRef S = resolveSlot(P, E);
  if (!S.Cell) {
    fail(RunErrorKind::BadPointer, SourceLoc(),
         "reference to unknown variable '" + E->Name + "'");
    return Value::makeInt(0);
  }
  if (S.ArraySize >= 0) {
    fail(RunErrorKind::BadPointer, SourceLoc(),
         "array '" + E->Name + "' used as a scalar");
    return Value::makeInt(0);
  }
  return *S.Cell;
}

bool System::addressOf(ProcessRT &P, const Expr *Place, Address &Out) {
  // Locate the slot and encode its position.
  auto Cached = VarSlotCache.find(Place);
  if (Cached == VarSlotCache.end()) {
    fail(RunErrorKind::BadPointer, Place->Loc,
         "address of unknown variable '" + Place->Name + "'");
    return false;
  }
  int32_t Code = Cached->second;
  if (Code >= 0) {
    Out.Sp = Address::Space::Frame;
    Out.FrameIndex = static_cast<uint32_t>(P.Frames.size() - 1);
    Out.SlotIndex = static_cast<uint32_t>(Code);
  } else {
    Out.Sp = Address::Space::Global;
    Out.SlotIndex = static_cast<uint32_t>(~Code);
  }
  Out.ElemIndex = -1;
  if (Place->Kind == ExprKind::ArrayIndex) {
    Value Idx = eval(P, Place->Lhs.get());
    if (PendingError)
      return false;
    if (!Idx.isInt()) {
      fail(RunErrorKind::UnknownInControl, Place->Loc,
           "array index is not an integer");
      return false;
    }
    Out.ElemIndex = static_cast<int32_t>(Idx.asInt());
  }
  return true;
}

System::SlotRef System::slotAt(ProcessRT &P, const Address &A) {
  if (A.Sp == Address::Space::Global) {
    if (A.SlotIndex >= Mod.Globals.size()) {
      fail(RunErrorKind::BadPointer, SourceLoc(), "bad global address");
      return {};
    }
    return {P.Cells.data() + Layout.GlobalOffsets[A.SlotIndex],
            Mod.Globals[A.SlotIndex].ArraySize};
  }
  if (A.FrameIndex >= P.Frames.size()) {
    fail(RunErrorKind::BadPointer, SourceLoc(),
         "dangling pointer into a popped frame");
    return {};
  }
  const Frame &F = P.Frames[A.FrameIndex];
  const ProcLayout &L = Layout.Procs[static_cast<size_t>(F.ProcIdx)];
  if (A.SlotIndex >= L.ArraySizes.size()) {
    fail(RunErrorKind::BadPointer, SourceLoc(), "bad frame address");
    return {};
  }
  return {P.Cells.data() + F.Base + L.Offsets[A.SlotIndex],
          L.ArraySizes[A.SlotIndex]};
}

Value System::loadAddress(ProcessRT &P, const Address &A) {
  SlotRef S = slotAt(P, A);
  if (!S.Cell)
    return Value::makeInt(0);
  if (S.ArraySize >= 0) {
    if (A.ElemIndex < 0 || A.ElemIndex >= S.ArraySize) {
      fail(RunErrorKind::IndexOutOfBounds, SourceLoc(),
           "array index out of bounds through pointer");
      return Value::makeInt(0);
    }
    return S.Cell[A.ElemIndex];
  }
  if (A.ElemIndex > 0) {
    fail(RunErrorKind::BadPointer, SourceLoc(), "element access on scalar");
    return Value::makeInt(0);
  }
  return *S.Cell;
}

void System::storeAddress(ProcessRT &P, const Address &A, Value V) {
  SlotRef S = slotAt(P, A);
  if (!S.Cell)
    return;
  if (S.ArraySize >= 0) {
    if (A.ElemIndex < 0 || A.ElemIndex >= S.ArraySize) {
      fail(RunErrorKind::IndexOutOfBounds, SourceLoc(),
           "array index out of bounds through pointer");
      return;
    }
    S.Cell[A.ElemIndex] = V;
    return;
  }
  *S.Cell = V;
}

void System::store(ProcessRT &P, const Expr *Lvalue, Value V) {
  switch (Lvalue->Kind) {
  case ExprKind::VarRef: {
    SlotRef S = resolveSlot(P, Lvalue);
    if (!S.Cell) {
      fail(RunErrorKind::BadPointer, Lvalue->Loc,
           "assignment to unknown variable '" + Lvalue->Name + "'");
      return;
    }
    if (S.ArraySize >= 0) {
      fail(RunErrorKind::BadPointer, Lvalue->Loc,
           "cannot assign to whole array");
      return;
    }
    *S.Cell = V;
    return;
  }
  case ExprKind::ArrayIndex: {
    Address A;
    if (!addressOf(P, Lvalue, A))
      return;
    storeAddress(P, A, V);
    return;
  }
  case ExprKind::Deref: {
    Value Ptr = eval(P, Lvalue->Lhs.get());
    if (PendingError)
      return;
    if (!Ptr.isPointer()) {
      fail(RunErrorKind::BadPointer, Lvalue->Loc,
           "store through a non-pointer value");
      return;
    }
    storeAddress(P, Ptr.asPointer(), V);
    return;
  }
  default:
    fail(RunErrorKind::BadPointer, Lvalue->Loc, "invalid assignment target");
  }
}

//===----------------------------------------------------------------------===//
// Expression evaluation
//===----------------------------------------------------------------------===//

bool System::truthy(ProcessRT &, const Value &V, SourceLoc Loc) {
  if (V.isUnknown()) {
    fail(RunErrorKind::UnknownInControl, Loc,
         "control flow depends on an unknown value (module not closed?)");
    return false;
  }
  if (V.isPointer())
    return true;
  return V.asInt() != 0;
}

Value System::eval(ProcessRT &P, const Expr *E) {
  if (PendingError)
    return Value::makeInt(0);
  switch (E->Kind) {
  case ExprKind::IntLit:
    return Value::makeInt(E->IntValue);
  case ExprKind::Unknown:
    return Value::makeUnknown();
  case ExprKind::VarRef:
    return loadVar(P, E);
  case ExprKind::ArrayIndex: {
    Address A;
    if (!addressOf(P, E, A))
      return Value::makeInt(0);
    return loadAddress(P, A);
  }
  case ExprKind::AddrOf: {
    Address A;
    if (!addressOf(P, E->Lhs.get(), A))
      return Value::makeInt(0);
    return Value::makePointer(A);
  }
  case ExprKind::Deref: {
    Value Ptr = eval(P, E->Lhs.get());
    if (PendingError)
      return Value::makeInt(0);
    if (Ptr.isUnknown())
      return Value::makeUnknown();
    if (!Ptr.isPointer()) {
      fail(RunErrorKind::BadPointer, E->Loc,
           "dereference of a non-pointer value");
      return Value::makeInt(0);
    }
    return loadAddress(P, Ptr.asPointer());
  }
  case ExprKind::Unary: {
    Value V = eval(P, E->Lhs.get());
    if (PendingError)
      return Value::makeInt(0);
    if (V.isUnknown())
      return Value::makeUnknown();
    if (V.isPointer()) {
      fail(RunErrorKind::BadPointer, E->Loc, "arithmetic on a pointer");
      return Value::makeInt(0);
    }
    if (E->UOp == UnaryOp::Neg) {
      int64_t Out;
      if (!checkedNeg(V.asInt(), Out)) {
        fail(RunErrorKind::IntegerOverflow, E->Loc,
             "signed integer overflow in unary '-'");
        return Value::makeInt(0);
      }
      return Value::makeInt(Out);
    }
    return Value::makeInt(V.asInt() == 0 ? 1 : 0);
  }
  case ExprKind::Binary: {
    Value L = eval(P, E->Lhs.get());
    Value R = eval(P, E->Rhs.get());
    if (PendingError)
      return Value::makeInt(0);
    // Pointer equality is the only legal pointer operation.
    if (E->BOp == BinaryOp::Eq || E->BOp == BinaryOp::Ne) {
      if (L.isUnknown() || R.isUnknown())
        return Value::makeUnknown();
      bool Equal = L == R;
      return Value::makeInt((E->BOp == BinaryOp::Eq) == Equal ? 1 : 0);
    }
    if (L.isPointer() || R.isPointer()) {
      fail(RunErrorKind::BadPointer, E->Loc, "arithmetic on a pointer");
      return Value::makeInt(0);
    }
    if (L.isUnknown() || R.isUnknown())
      return Value::makeUnknown();
    int64_t A = L.asInt(), B = R.asInt(), Out;
    switch (E->BOp) {
    case BinaryOp::Add:
      if (!checkedAdd(A, B, Out)) {
        fail(RunErrorKind::IntegerOverflow, E->Loc,
             "signed integer overflow in '+'");
        return Value::makeInt(0);
      }
      return Value::makeInt(Out);
    case BinaryOp::Sub:
      if (!checkedSub(A, B, Out)) {
        fail(RunErrorKind::IntegerOverflow, E->Loc,
             "signed integer overflow in '-'");
        return Value::makeInt(0);
      }
      return Value::makeInt(Out);
    case BinaryOp::Mul:
      if (!checkedMul(A, B, Out)) {
        fail(RunErrorKind::IntegerOverflow, E->Loc,
             "signed integer overflow in '*'");
        return Value::makeInt(0);
      }
      return Value::makeInt(Out);
    case BinaryOp::Div:
      if (B == 0) {
        fail(RunErrorKind::DivisionByZero, E->Loc, "division by zero");
        return Value::makeInt(0);
      }
      if (!checkedDiv(A, B, Out)) {
        fail(RunErrorKind::IntegerOverflow, E->Loc,
             "signed integer overflow in '/'");
        return Value::makeInt(0);
      }
      return Value::makeInt(Out);
    case BinaryOp::Mod:
      if (B == 0) {
        fail(RunErrorKind::DivisionByZero, E->Loc, "modulo by zero");
        return Value::makeInt(0);
      }
      if (!checkedMod(A, B, Out)) {
        fail(RunErrorKind::IntegerOverflow, E->Loc,
             "signed integer overflow in '%'");
        return Value::makeInt(0);
      }
      return Value::makeInt(Out);
    case BinaryOp::Lt:
      return Value::makeInt(A < B);
    case BinaryOp::Le:
      return Value::makeInt(A <= B);
    case BinaryOp::Gt:
      return Value::makeInt(A > B);
    case BinaryOp::Ge:
      return Value::makeInt(A >= B);
    case BinaryOp::And:
      return Value::makeInt((A != 0 && B != 0) ? 1 : 0);
    case BinaryOp::Or:
      return Value::makeInt((A != 0 || B != 0) ? 1 : 0);
    case BinaryOp::Eq:
    case BinaryOp::Ne:
      break; // Handled above.
    }
    return Value::makeInt(0);
  }
  case ExprKind::Call:
    fail(RunErrorKind::BadPointer, E->Loc,
         "call expression reached the evaluator (lowering bug)");
    return Value::makeInt(0);
  }
  return Value::makeInt(0);
}

//===----------------------------------------------------------------------===//
// Control flow
//===----------------------------------------------------------------------===//

/// Follows the single Always arc of the current node, or halts the process
/// when the closing transformation dropped it (|succ(a)| == 0: the original
/// program diverged invisibly here).
void System::advanceAlways(ProcessRT &P) {
  Frame &F = P.Frames.back();
  const CfgNode &Node = currentNode(P);
  if (Node.Arcs.empty()) {
    haltProcess(P);
    return;
  }
  F.PC = Node.Arcs[0].Target;
}

bool System::frameFits(const ProcessRT &P, size_t Cells, SourceLoc Loc) {
  // P.Cells.size() <= MaxProcessCells always holds: the verifier bounds the
  // globals, and every frame push goes through here.
  if (Cells <= MaxProcessCells - P.Cells.size())
    return true;
  fail(RunErrorKind::StackOverflow, Loc, "frame storage limit exceeded");
  return false;
}

System::Frame *System::pushFrame(ProcessRT &P, int ProcIdx, SourceLoc Loc) {
  size_t Cells = Layout.Procs[static_cast<size_t>(ProcIdx)].Cells;
  if (!frameFits(P, Cells, Loc))
    return nullptr;
  Frame F;
  F.ProcIdx = ProcIdx;
  F.PC = Mod.Procs[static_cast<size_t>(ProcIdx)].Entry;
  F.Base = static_cast<uint32_t>(P.Cells.size());
  // Value() is Int(0): every slot and array element starts zeroed.
  P.Cells.resize(P.Cells.size() + Cells);
  P.Frames.push_back(F);
  return &P.Frames.back();
}

ExecResult System::runInvisible(int PIdx, ChoiceProvider &Provider) {
  ExecResult Result;
  ProcessRT &P = Processes[PIdx];
  CurrentProcess = PIdx;
  size_t Steps = 0;

  while (P.Status != ProcStatus::Halted) {
    if (PendingError)
      break;
    if (++Steps > Options.InvisibleStepLimit) {
      fail(RunErrorKind::Divergence, SourceLoc(),
           "invisible step limit exceeded (divergence)");
      break;
    }
    Frame &F = P.Frames.back();
    const CfgNode &Node = currentNode(P);

    switch (Node.Kind) {
    case CfgNodeKind::Start:
      advanceAlways(P);
      break;

    case CfgNodeKind::Assign: {
      Value V = eval(P, Node.Value.get());
      if (PendingError)
        break;
      store(P, Node.Target.get(), V);
      if (PendingError)
        break;
      advanceAlways(P);
      break;
    }

    case CfgNodeKind::Branch: {
      Value C = eval(P, Node.Value.get());
      if (PendingError)
        break;
      bool Taken = truthy(P, C, Node.Loc);
      if (PendingError)
        break;
      F.PC = Node.Arcs[Taken ? 0 : 1].Target;
      break;
    }

    case CfgNodeKind::Switch: {
      Value V = eval(P, Node.Value.get());
      if (PendingError)
        break;
      if (!V.isInt()) {
        fail(RunErrorKind::UnknownInControl, Node.Loc,
             "switch on a non-integer value");
        break;
      }
      NodeId Target = InvalidNode;
      NodeId DefaultTarget = InvalidNode;
      for (const CfgArc &Arc : Node.Arcs) {
        if (Arc.Kind == ArcKind::CaseEq && Arc.Value == V.asInt()) {
          Target = Arc.Target;
          break;
        }
        if (Arc.Kind == ArcKind::CaseDefault)
          DefaultTarget = Arc.Target;
      }
      F.PC = Target != InvalidNode ? Target : DefaultTarget;
      assert(F.PC != InvalidNode && "switch must have a default arc");
      break;
    }

    case CfgNodeKind::TossBranch: {
      if (Node.TossBound < 0) {
        // A malformed (or corrupted) closed program; report it instead of
        // letting the explorer enumerate a wrapped-around option range.
        fail(RunErrorKind::BadTossBound, Node.Loc,
             "toss branch bound must be a nonnegative integer");
        break;
      }
      int64_t Choice = Provider.choose(ChoiceProvider::ChoiceKind::Toss,
                                       Node.TossBound);
      assert(Choice >= 0 && Choice <= Node.TossBound && "bad toss choice");
      NodeId Target = InvalidNode;
      for (const CfgArc &Arc : Node.Arcs)
        if (Arc.Value == Choice) {
          Target = Arc.Target;
          break;
        }
      assert(Target != InvalidNode && "toss arcs cover all outcomes");
      F.PC = Target;
      break;
    }

    case CfgNodeKind::Return: {
      Value RetVal = Value::makeInt(0);
      const ProcLayout &L = Layout.Procs[static_cast<size_t>(F.ProcIdx)];
      if (L.RetValSlot >= 0)
        RetVal = P.Cells[F.Base +
                         L.Offsets[static_cast<size_t>(L.RetValSlot)]];
      popFrame(P);
      if (P.Frames.empty()) {
        // Top-level termination: blocking forever (paper §4 assumption).
        haltProcess(P);
        break;
      }
      const CfgNode &CallNode = currentNode(P);
      assert(CallNode.Kind == CfgNodeKind::Call && "caller not at a call");
      if (CallNode.Target) {
        store(P, CallNode.Target.get(), RetVal);
        if (PendingError)
          break;
      }
      advanceAlways(P);
      break;
    }

    case CfgNodeKind::Call: {
      if (Node.isVisibleOp()) {
        // Transition boundary: stop just before the visible operation.
        P.Status = ProcStatus::AtVisible;
        return Result;
      }
      switch (Node.Builtin) {
      case BuiltinKind::VsToss: {
        Value Bound = eval(P, Node.Args[0].get());
        if (PendingError)
          break;
        if (!Bound.isInt() || Bound.asInt() < 0) {
          fail(RunErrorKind::BadTossBound, Node.Loc,
               "VS_toss bound must be a nonnegative integer");
          break;
        }
        int64_t V = Provider.choose(ChoiceProvider::ChoiceKind::Toss,
                                    Bound.asInt());
        if (Node.Target) {
          store(P, Node.Target.get(), Value::makeInt(V));
          if (PendingError)
            break;
        }
        advanceAlways(P);
        break;
      }
      case BuiltinKind::EnvInput: {
        if (Options.EnvDomainBound < 0) {
          fail(RunErrorKind::BadTossBound, Node.Loc,
               "environment domain bound must be a nonnegative integer");
          break;
        }
        int64_t V = Provider.choose(ChoiceProvider::ChoiceKind::Env,
                                    Options.EnvDomainBound);
        if (Node.Target) {
          store(P, Node.Target.get(), Value::makeInt(V));
          if (PendingError)
            break;
        }
        advanceAlways(P);
        break;
      }
      case BuiltinKind::EnvOutput: {
        // The most general environment accepts any output.
        (void)eval(P, Node.Args[0].get());
        if (PendingError)
          break;
        advanceAlways(P);
        break;
      }
      case BuiltinKind::None: {
        // User procedure call: push a frame.
        if (P.Frames.size() >= Options.StackLimit) {
          fail(RunErrorKind::StackOverflow, Node.Loc,
               "frame stack limit exceeded");
          break;
        }
        int CalleeIdx = Mod.procIndex(Node.Callee);
        assert(CalleeIdx >= 0 && "verified module");
        // Arguments are evaluated in the caller's frame, before the callee
        // frame exists; parameter A is the callee's cell A.
        ArgBuf.clear();
        for (const ExprPtr &Arg : Node.Args) {
          Value V = eval(P, Arg.get());
          if (PendingError)
            break;
          ArgBuf.push_back(V);
        }
        if (PendingError)
          break;
        const Frame *Callee = pushFrame(P, CalleeIdx, Node.Loc);
        if (!Callee)
          break;
        std::copy(ArgBuf.begin(), ArgBuf.end(),
                  P.Cells.begin() + Callee->Base);
        break;
      }
      default:
        assert(false && "visible builtins handled above");
      }
      break;
    }
    }
  }

  if (PendingError) {
    Result.Error = PendingError;
    PendingError = RunError();
    haltProcess(P);
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Visible operations
//===----------------------------------------------------------------------===//

bool System::processEnabled(int P) const {
  const ProcessRT &Proc = Processes[static_cast<size_t>(P)];
  // Halted, or Starting: a process whose prefix has not parked it yet has
  // no pending visible operation at all.
  if (Proc.Status != ProcStatus::AtVisible)
    return false;
  const NodeOp &Op = pendingOp(Proc);
  switch (Op.Op) {
  case BuiltinKind::Send:
    return static_cast<int64_t>(Comms[static_cast<size_t>(Op.Obj)].Len) <
           Mod.Comms[static_cast<size_t>(Op.Obj)].Param;
  case BuiltinKind::Recv:
    return Comms[static_cast<size_t>(Op.Obj)].Len != 0;
  case BuiltinKind::SemWait:
    return Comms[static_cast<size_t>(Op.Obj)].Count > 0;
  case BuiltinKind::SemSignal:
  case BuiltinKind::SharedWrite:
  case BuiltinKind::SharedRead:
  case BuiltinKind::VsAssert:
    return true;
  case BuiltinKind::Halt:
    return false;
  default:
    assert(false && "process stopped at a non-visible operation");
    return false;
  }
}

std::vector<int> System::enabledProcesses() const {
  std::vector<int> Result;
  enabledProcessesInto(Result);
  return Result;
}

void System::enabledProcessesInto(std::vector<int> &Out) const {
  Out.clear();
  for (int P = 0, E = processCount(); P != E; ++P)
    if (processEnabled(P))
      Out.push_back(P);
}

GlobalStateKind System::classify() const {
  bool AnyWaiting = false;
  for (int P = 0, E = processCount(); P != E; ++P) {
    if (processEnabled(P))
      return GlobalStateKind::HasEnabled;
    const ProcessRT &Proc = Processes[static_cast<size_t>(P)];
    // A process parked at halt() or finished counts as terminated; one
    // blocked on a communication operation makes the state a deadlock, and
    // so does one whose prefix never ran because an earlier one failed.
    if (Proc.Status == ProcStatus::Starting ||
        (Proc.Status == ProcStatus::AtVisible &&
         pendingOp(Proc).Op != BuiltinKind::Halt))
      AnyWaiting = true;
  }
  return AnyWaiting ? GlobalStateKind::Deadlock : GlobalStateKind::Termination;
}

void System::execVisible(int PIdx, ChoiceProvider &, ExecResult &Result) {
  ProcessRT &P = Processes[PIdx];
  const CfgNode &Node = currentNode(P);
  const size_t Obj = static_cast<size_t>(pendingOp(P).Obj);

  VisibleEvent Event;
  Event.ProcessIndex = PIdx;
  Event.Op = Node.Builtin;
  if (builtinInfo(Node.Builtin).TakesObject)
    Event.Object = Node.Args[0]->Name;

  switch (Node.Builtin) {
  case BuiltinKind::Send: {
    Value V = eval(P, Node.Args[1].get());
    if (PendingError)
      break;
    Comms[Obj].push(V);
    Event.Payload = V;
    Event.HasPayload = true;
    break;
  }
  case BuiltinKind::Recv: {
    assert(Comms[Obj].Len != 0 && "recv on empty channel");
    Value V = Comms[Obj].pop();
    if (Node.Target)
      store(P, Node.Target.get(), V);
    Event.Payload = V;
    Event.HasPayload = true;
    break;
  }
  case BuiltinKind::SemWait: {
    assert(Comms[Obj].Count > 0 && "wait on zero semaphore");
    --Comms[Obj].Count;
    break;
  }
  case BuiltinKind::SemSignal: {
    ++Comms[Obj].Count;
    break;
  }
  case BuiltinKind::SharedWrite: {
    Value V = eval(P, Node.Args[1].get());
    if (PendingError)
      break;
    Comms[Obj].Shared = V;
    Event.Payload = V;
    Event.HasPayload = true;
    break;
  }
  case BuiltinKind::SharedRead: {
    Value V = Comms[Obj].Shared;
    if (Node.Target)
      store(P, Node.Target.get(), V);
    Event.Payload = V;
    Event.HasPayload = true;
    break;
  }
  case BuiltinKind::VsAssert: {
    Value V = eval(P, Node.Args[0].get());
    if (PendingError)
      break;
    // An unknown assertion argument means the assertion was not preserved
    // by the transformation (Theorem 7); it never fires.
    if (V.isInt() && V.asInt() == 0)
      Result.Violations.push_back({PIdx, Node.Loc});
    Event.Payload = V;
    Event.HasPayload = true;
    break;
  }
  default:
    assert(false && "not a visible operation");
  }

  if (!PendingError)
    EventTrace.push_back(std::move(Event));
}

ExecResult System::executeTransition(int PIdx, ChoiceProvider &Provider) {
  if (Engine)
    return Engine->executeTransition(*this, PIdx, Provider);
  return interpTransition(PIdx, Provider);
}

ExecResult System::interpPrefix(int PIdx, ChoiceProvider &Provider) {
  return runInvisible(PIdx, Provider);
}

ExecResult System::interpTransition(int PIdx, ChoiceProvider &Provider) {
  assert(processEnabled(PIdx) && "executing a disabled transition");
  ExecResult Result;
  CurrentProcess = PIdx;
  ProcessRT &P = Processes[PIdx];

  execVisible(PIdx, Provider, Result);
  if (PendingError) {
    Result.Error = PendingError;
    PendingError = RunError();
    haltProcess(P);
    return Result;
  }
  advanceAlways(P);
  ++NumTransitions;

  ExecResult Tail = runInvisible(PIdx, Provider);
  Result.Violations.insert(Result.Violations.end(), Tail.Violations.begin(),
                           Tail.Violations.end());
  if (!Tail.ok())
    Result.Error = Tail.Error;
  return Result;
}

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

void System::frameStackInto(int P,
                            std::vector<std::pair<int, NodeId>> &Out) const {
  Out.clear();
  for (const Frame &F : Processes[static_cast<size_t>(P)].Frames)
    Out.push_back({F.ProcIdx, F.PC});
}

namespace {

struct Fnv1a {
  uint64_t H = 1469598103934665603ull;
  void mix(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (I * 8)) & 0xff;
      H *= 1099511628211ull;
    }
  }
  void mixValue(const Value &V) {
    mix(static_cast<uint64_t>(V.kind()));
    switch (V.kind()) {
    case Value::Kind::Int:
      mix(static_cast<uint64_t>(V.asInt()));
      break;
    case Value::Kind::Unknown:
      break;
    case Value::Kind::Pointer: {
      const Address &A = V.asPointer();
      mix(static_cast<uint64_t>(A.Sp));
      mix(A.FrameIndex);
      mix(A.SlotIndex);
      mix(static_cast<uint64_t>(static_cast<int64_t>(A.ElemIndex)));
      break;
    }
    }
  }
};

} // namespace

uint64_t System::fingerprint() const {
  // The value sequence: per process its status (halted or not), its
  // globals, then per frame the procedure, the PC and the frame's cells;
  // per communication object its kind, count, shared value, and channel
  // length and items in FIFO order. Arrays contribute every element, in
  // place of their slot.
  Fnv1a H;
  for (const ProcessRT &P : Processes) {
    H.mix(P.Status == ProcStatus::Halted ? 1 : 0);
    const Value *Cells = P.Cells.data();
    for (size_t I = 0; I != Layout.GlobalCells; ++I)
      H.mixValue(Cells[I]);
    for (size_t FI = 0, FE = P.Frames.size(); FI != FE; ++FI) {
      const Frame &F = P.Frames[FI];
      H.mix(static_cast<uint64_t>(F.ProcIdx));
      H.mix(F.PC);
      size_t End = FI + 1 != FE ? P.Frames[FI + 1].Base : P.Cells.size();
      for (size_t I = F.Base; I != End; ++I)
        H.mixValue(Cells[I]);
    }
  }
  for (const CommState &C : Comms) {
    H.mix(static_cast<uint64_t>(C.Kind));
    H.mix(static_cast<uint64_t>(C.Count));
    H.mixValue(C.Shared);
    H.mix(C.Len);
    for (size_t I = 0; I != C.Len; ++I)
      H.mixValue(C.item(I));
  }
  return H.H;
}
